package bench

import "testing"

func TestRunWireInProcess(t *testing.T) {
	res, err := RunWire(WireOptions{Packets: 500, Window: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lost() != 0 {
		t.Fatalf("lost %d of %d packets: %+v", res.Lost(), res.Packets, res)
	}
	if len(res.Links) != 2 {
		t.Errorf("want 2 link snapshots, got %d", len(res.Links))
	}
	for _, h := range res.Links {
		if h.Link.Stats.TxErrors != 0 || h.Iface.RxDrops+h.Iface.TxDrops != 0 {
			t.Errorf("link %s saw wire trouble: %+v %+v", h.Link.Name, h.Link.Stats, h.Iface)
		}
	}
	if WireTable(res).String() == "" {
		t.Error("empty table rendering")
	}
}

func TestRunWireWorkers(t *testing.T) {
	res, err := RunWire(WireOptions{Packets: 500, Window: 64, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lost() != 0 {
		t.Fatalf("lost %d of %d packets: %+v", res.Lost(), res.Packets, res)
	}
}
