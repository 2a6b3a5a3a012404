package bench

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/routerplugins/eisr/internal/aiu"
	"github.com/routerplugins/eisr/internal/bmp"
	"github.com/routerplugins/eisr/internal/ipcore"
	"github.com/routerplugins/eisr/internal/netdev"
	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/routing"
)

// BatchRow is one batch-size measurement of the vector forwarding path.
type BatchRow struct {
	Batch   int
	PPS     float64
	Speedup float64 // vs the first (batch=1) row
	WirePPS float64 // end-to-end wire throughput; 0 when the wire leg is off
}

// BatchSweepOptions sizes the experiment.
type BatchSweepOptions struct {
	Sizes       []int // batch sizes to sweep (default 1, 4, 8, 16, 32)
	Flows       int   // distinct five-tuple flows (default 1024)
	PerFlow     int   // packets per flow (default 200)
	Workers     int   // forwarding workers (default 4)
	Wire        bool  // also measure each size end to end over the wire
	WirePackets int   // packets per wire run (default 2000)
}

// RunBatchSweep measures steady-state cache-hit throughput as the
// per-worker forwarding vector grows. The topology and workload are
// RunParallel's — pre-built per-flow wire images, flows primed into the
// table, packets pre-partitioned by the engine's own steering function
// — but the workers forward through per-worker Batchers in chunks of
// the swept size, so the measurement isolates what batching amortizes:
// one COW snapshot load, one flow-table shard lock, and one gate
// dispatch per contiguous run instead of per packet.
//
// With Wire set, each size is also driven end to end through the
// two-router UDP overlay topology (socket costs dominate there; the
// column shows batching does not regress the wire path).
func RunBatchSweep(opt BatchSweepOptions) ([]BatchRow, error) {
	if len(opt.Sizes) == 0 {
		opt.Sizes = []int{1, 4, 8, 16, 32}
	}
	if opt.Flows <= 0 {
		opt.Flows = 1024
	}
	if opt.PerFlow <= 0 {
		opt.PerFlow = 200
	}
	if opt.Workers <= 0 {
		opt.Workers = 4
	}
	if opt.WirePackets <= 0 {
		opt.WirePackets = 2000
	}
	const outIfs = 8

	routes, err := routing.New(bmp.KindBSPL)
	if err != nil {
		return nil, err
	}
	a := aiu.New(aiu.Config{
		BMPKind:  bmp.KindBSPL,
		MaxFlows: opt.Flows * 2,
	}, pcu.TypeSched)
	inst := benchInstance{}
	a.Bind(pcu.TypeSched, aiu.MatchAll(), &inst, nil)

	r, err := ipcore.New(ipcore.Config{
		Mode: ipcore.ModePlugin, Gates: []pcu.Type{pcu.TypeSched},
		AIU: a, Routes: routes,
		OutQueueLen: opt.Flows*opt.PerFlow/outIfs + 4096,
	})
	if err != nil {
		return nil, err
	}
	in := netdev.NewInterface(0, netdev.Config{})
	r.AddInterface(in)
	for i := 0; i < outIfs; i++ {
		idx := int32(100 + i)
		r.AddInterface(netdev.NewInterface(idx, netdev.Config{}))
		routes.Add(pkt.PrefixFrom(pkt.AddrV4(uint32(20+i)<<24), 8), routing.NextHop{IfIndex: idx})
	}

	buf := make([][]byte, opt.Flows)
	for f := 0; f < opt.Flows; f++ {
		data, err := pkt.BuildUDP(pkt.UDPSpec{
			Src:     pkt.AddrV4(0x0a000000 + uint32(f)),
			Dst:     pkt.AddrV4(uint32(20+f%outIfs)<<24 | uint32(f)),
			SrcPort: uint16(1000 + f%60000), DstPort: 9,
			TTL: 255, Payload: make([]byte, 64),
		})
		if err != nil {
			return nil, err
		}
		buf[f] = data
	}

	// Prime every flow so the sweep measures the steady-state hit path.
	now := time.Now()
	for f := 0; f < opt.Flows; f++ {
		p, err := pkt.NewPacket(buf[f], 0)
		if err != nil {
			return nil, err
		}
		p.Stamp = now
		r.Forward(p)
	}
	drain(r, outIfs)

	rows := make([]BatchRow, 0, len(opt.Sizes))
	var base float64
	for _, size := range opt.Sizes {
		parts := make([][]*pkt.Packet, opt.Workers)
		for f := 0; f < opt.Flows; f++ {
			k, err := pkt.ExtractKey(buf[f], 0)
			if err != nil {
				return nil, err
			}
			wi := aiu.SteerWorker(pkt.FlowHash(k), opt.Workers)
			for j := 0; j < opt.PerFlow; j++ {
				p := &pkt.Packet{Data: buf[f], InIf: 0, OutIf: -1, Stamp: now}
				p.SetKey(k)
				parts[wi] = append(parts[wi], p)
			}
		}

		var wg sync.WaitGroup
		start := time.Now()
		for wi := 0; wi < opt.Workers; wi++ {
			wg.Add(1)
			go func(list []*pkt.Packet) {
				defer wg.Done()
				b := r.NewBatcher(size)
				for off := 0; off < len(list); off += size {
					end := off + size
					if end > len(list) {
						end = len(list)
					}
					b.ForwardBatch(list[off:end])
				}
			}(parts[wi])
		}
		wg.Wait()
		elapsed := time.Since(start)
		drain(r, outIfs)

		total := float64(opt.Flows * opt.PerFlow)
		pps := total / elapsed.Seconds()
		if size == opt.Sizes[0] {
			base = pps
		}
		row := BatchRow{Batch: size, PPS: pps, Speedup: pps / base}
		if opt.Wire {
			wres, err := RunWire(WireOptions{
				Packets: opt.WirePackets, Workers: opt.Workers, Batch: size,
			})
			if err != nil {
				return nil, fmt.Errorf("batch=%d wire leg: %w", size, err)
			}
			if wres.Lost() > 0 {
				return nil, fmt.Errorf("batch=%d wire leg lost %d of %d packets",
					size, wres.Lost(), wres.Packets)
			}
			row.WirePPS = float64(wres.Received) / wres.Elapsed.Seconds()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// BatchTable renders the sweep.
func BatchTable(rows []BatchRow, workers int) *Table {
	wire := false
	for _, row := range rows {
		if row.WirePPS > 0 {
			wire = true
		}
	}
	t := &Table{Title: fmt.Sprintf("Vector forwarding: cache-hit throughput vs batch size (%d workers)", workers)}
	if wire {
		t.Header = []string{"batch", "in-process", "speedup", "wire"}
	} else {
		t.Header = []string{"batch", "in-process", "speedup"}
	}
	for _, row := range rows {
		cols := []string{fmt.Sprintf("%d", row.Batch), fmtRate(row.PPS), fmt.Sprintf("%.2fx", row.Speedup)}
		if wire {
			w := "-"
			if row.WirePPS > 0 {
				w = fmtRate(row.WirePPS)
			}
			cols = append(cols, w)
		}
		t.Add(cols...)
	}
	t.Note("per batch: one routing-state snapshot load, one flow-table lock per shard run, one gate dispatch per contiguous instance run (GOMAXPROCS=%d)", runtime.GOMAXPROCS(0))
	return t
}
