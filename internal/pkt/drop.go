package pkt

// DropReason says why a packet was lost. It is the router's one list of
// reasons: the stage that loses a packet decides its reason there, and
// every record of the loss reads that one value — the layer's cell,
// indexed by this enum and exported in the single eisr_drops_total
// family under the reason's label, the packet trace entry and the
// in-band path hop. The zero value, DropNone, means the packet was not
// lost.
type DropReason uint8

// The drop reasons.
const (
	DropNone        DropReason = iota // not dropped
	DropDown                          // interface administratively down
	DropTooBig                        // larger than the interface or wire MTU
	DropMalformed                     // headers do not parse
	DropBadPath                       // path-trace encapsulation does not decode
	DropRingFull                      // an interface RX or TX ring had no room
	DropBadChecksum                   // IPv4 header checksum mismatch
	DropTTL                           // TTL or hop limit expired
	DropNoRoute                       // no route to the destination
	DropNoOutput                      // routed to an interface that is not attached
	DropPlugin                        // a plugin instance rejected the packet
	DropPluginFault                   // a plugin faulted under the drop policy
	DropQueueFull                     // the output queue had no room
	DropMTU                           // too big for the output link, not fragmentable
	DropEvicted                       // queued on a flow queue that was removed
	DropRcvbuf                        // a kernel socket receive buffer was full
	DropTxError                       // a socket write failed
	NumDropReasons
)

var dropReasonLabels = [NumDropReasons]string{
	"", "down", "too-big", "malformed", "bad-path", "ring-full",
	"bad-checksum", "ttl-expired", "no-route", "no-output", "plugin",
	"plugin-fault", "queue-full", "mtu", "evicted", "rcvbuf", "tx-error",
}

// String returns the reason's eisr_drops_total label; DropNone's is
// empty.
func (r DropReason) String() string { return dropReasonLabels[r] }

// MarshalText renders the reason as its label, so a trace reply names
// the reason the counters use.
func (r DropReason) MarshalText() ([]byte, error) { return []byte(r.String()), nil }
