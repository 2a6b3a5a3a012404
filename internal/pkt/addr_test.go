package pkt

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddrV4RoundTrip(t *testing.T) {
	cases := []uint32{0, 1, 0x81fc9901, 0xffffffff, 0xc0a80101}
	for _, v := range cases {
		a := AddrV4(v)
		if a.IsV6() {
			t.Fatalf("AddrV4(%#x) reported IPv6", v)
		}
		if got := a.V4Uint(); got != v {
			t.Errorf("V4Uint round trip: got %#x want %#x", got, v)
		}
	}
}

func TestParseAddr(t *testing.T) {
	a := MustParseAddr("129.132.66.1")
	if a.IsV6() || a.String() != "129.132.66.1" {
		t.Errorf("parse v4: got %s v6=%v", a, a.IsV6())
	}
	b := MustParseAddr("2001:db8::42")
	if !b.IsV6() || b.String() != "2001:db8::42" {
		t.Errorf("parse v6: got %s v6=%v", b, b.IsV6())
	}
	if _, err := ParseAddr("not-an-address"); err == nil {
		t.Error("expected error for garbage input")
	}
	// A 4-in-6 mapped address must unmap to the IPv4 form so that flow
	// keys are canonical.
	c := MustParseAddr("::ffff:10.0.0.1")
	if c.IsV6() {
		t.Errorf("mapped address not unmapped: %s", c)
	}
}

func TestAddrFamilyDistinct(t *testing.T) {
	v4 := AddrV4(0x01020304)
	var b16 [16]byte
	b16[0], b16[1], b16[2], b16[3] = 1, 2, 3, 4
	v6 := AddrFrom16(b16)
	if v4 == v6 {
		t.Error("IPv4 and IPv6 addresses with equal bytes compare equal")
	}
}

func TestAddrBit(t *testing.T) {
	a := AddrV4(0x80000001) // 128.0.0.1
	if a.Bit(0) != 1 {
		t.Error("bit 0 of 128.0.0.1 should be 1")
	}
	if a.Bit(1) != 0 {
		t.Error("bit 1 of 128.0.0.1 should be 0")
	}
	if a.Bit(31) != 1 {
		t.Error("bit 31 of 128.0.0.1 should be 1")
	}
	defer func() {
		if recover() == nil {
			t.Error("Bit(32) on IPv4 address should panic")
		}
	}()
	a.Bit(32)
}

func TestTruncate(t *testing.T) {
	a := MustParseAddr("129.132.66.255")
	if got := a.Truncate(8).String(); got != "129.0.0.0" {
		t.Errorf("Truncate(8) = %s", got)
	}
	if got := a.Truncate(24).String(); got != "129.132.66.0" {
		t.Errorf("Truncate(24) = %s", got)
	}
	if got := a.Truncate(32); got != a {
		t.Errorf("Truncate(32) = %s, want identity", got)
	}
	if got := a.Truncate(0).String(); got != "0.0.0.0" {
		t.Errorf("Truncate(0) = %s", got)
	}
	// Truncation is idempotent and monotone (property check on v4).
	err := quick.Check(func(v uint32, n uint8) bool {
		k := int(n % 33)
		x := AddrV4(v).Truncate(k)
		return x.Truncate(k) == x
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

// truncateBytes is the byte-at-a-time reference Truncate is checked
// against: keep the first n bits, clear every later bit of all 16 bytes.
func truncateBytes(a Addr, n int) Addr {
	for i := range a.b {
		switch {
		case 8*i+8 <= n:
		case 8*i >= n:
			a.b[i] = 0
		default:
			a.b[i] &= byte(0xff << (8 - uint(n-8*i)))
		}
	}
	return a
}

func TestTruncateEveryLength(t *testing.T) {
	for _, s := range []string{"255.255.255.255", "129.132.66.201", "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff", "2001:db8:aaaa:5555:1234:5678:9abc:def0"} {
		a := MustParseAddr(s)
		for n := 0; n <= a.BitLen(); n++ {
			want := truncateBytes(a, n)
			if got := a.Truncate(n); got != want {
				t.Errorf("%s.Truncate(%d) = %s, want %s", s, n, got, want)
			}
			if got := PrefixFrom(a, n); got != (Prefix{Addr: want, Len: n}) {
				t.Errorf("PrefixFrom(%s, %d) = %s, want %s/%d", s, n, got, want, n)
			}
		}
	}
}

var wordSink uint32

// The benchmarks consume the result the way BSPL's probe does: the
// IPv4 word feeds the hash.
func BenchmarkTruncate(b *testing.B) {
	a := MustParseAddr("129.132.66.201")
	for i := 0; i < b.N; i++ {
		wordSink += a.Truncate(i & 31).V4Uint()
	}
}

func BenchmarkPrefixFrom(b *testing.B) {
	a := MustParseAddr("129.132.66.201")
	for i := 0; i < b.N; i++ {
		wordSink += PrefixFrom(a, i&31).Addr.V4Uint()
	}
}

func TestCommonPrefixLen(t *testing.T) {
	a := MustParseAddr("128.252.153.1")
	b := MustParseAddr("128.252.153.7")
	if got := a.CommonPrefixLen(b); got != 29 {
		t.Errorf("CommonPrefixLen = %d, want 29", got)
	}
	if got := a.CommonPrefixLen(a); got != 32 {
		t.Errorf("self CommonPrefixLen = %d, want 32", got)
	}
	v6 := MustParseAddr("2001:db8::1")
	if got := a.CommonPrefixLen(v6); got != 0 {
		t.Errorf("cross-family CommonPrefixLen = %d, want 0", got)
	}
}

func TestPrefixContains(t *testing.T) {
	p := MustParsePrefix("129.0.0.0/8")
	if !p.Contains(MustParseAddr("129.132.66.1")) {
		t.Error("129/8 should contain 129.132.66.1")
	}
	if p.Contains(MustParseAddr("128.252.153.1")) {
		t.Error("129/8 should not contain 128.252.153.1")
	}
	host := MustParsePrefix("192.94.233.10")
	if host.Len != 32 {
		t.Errorf("bare address prefix length = %d, want 32", host.Len)
	}
	all := MustParsePrefix("0.0.0.0/0")
	if !all.Contains(MustParseAddr("1.2.3.4")) {
		t.Error("0/0 should contain everything v4")
	}
	if all.Contains(MustParseAddr("2001:db8::1")) {
		t.Error("v4 0/0 should not contain v6 addresses")
	}
}

func TestPrefixOverlaps(t *testing.T) {
	a := MustParsePrefix("128.252.153.0/24")
	b := MustParsePrefix("128.252.153.1/32")
	c := MustParsePrefix("129.0.0.0/8")
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("nested prefixes should overlap")
	}
	if a.Overlaps(c) {
		t.Error("disjoint prefixes should not overlap")
	}
}

func TestPrefixFromCanonicalizes(t *testing.T) {
	p := PrefixFrom(MustParseAddr("129.132.66.1"), 8)
	if p.Addr.String() != "129.0.0.0" {
		t.Errorf("PrefixFrom did not truncate: %s", p)
	}
	// Property: Contains(x) agrees with CommonPrefixLen definition.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		base := AddrV4(rng.Uint32())
		n := rng.Intn(33)
		pf := PrefixFrom(base, n)
		probe := AddrV4(rng.Uint32())
		want := probe.CommonPrefixLen(pf.Addr) >= n
		if got := pf.Contains(probe); got != want {
			t.Fatalf("Contains mismatch: %s vs %s got %v want %v", pf, probe, got, want)
		}
	}
}
