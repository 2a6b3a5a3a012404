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

// ParallelRow is one worker-count measurement of the parallel
// forwarding engine on the cache-hit path.
type ParallelRow struct {
	Workers int
	PPS     float64
	Speedup float64 // vs the 1-worker row
}

// ParallelOptions sizes the experiment.
type ParallelOptions struct {
	Flows      int   // distinct five-tuple flows (default 1024)
	PerFlow    int   // packets per flow (default 200)
	Workers    []int // worker counts to sweep (default 1,2,4)
	OutIfs     int   // output interfaces to spread enqueue locking (default 8)
	FlowShards int   // flow-table shards (default: table default)
}

// RunParallel measures steady-state cache-hit forwarding throughput as
// worker count grows. Packets are pre-built and pre-partitioned by the
// engine's own steering function outside the timed region, so the
// measurement isolates the data path itself: per-worker goroutines call
// Forward back-to-back the way run-loop workers do, all flows are primed
// into the flow table first, and each worker only ever touches the
// flow-table shards its steering byte owns — the zero-cross-worker-
// locking property under test.
func RunParallel(opt ParallelOptions) ([]ParallelRow, error) {
	if opt.Flows <= 0 {
		opt.Flows = 1024
	}
	if opt.PerFlow <= 0 {
		opt.PerFlow = 200
	}
	if len(opt.Workers) == 0 {
		opt.Workers = []int{1, 2, 4}
	}
	if opt.OutIfs <= 0 {
		opt.OutIfs = 8
	}

	routes, err := routing.New(bmp.KindBSPL)
	if err != nil {
		return nil, err
	}
	a := aiu.New(aiu.Config{
		BMPKind:    bmp.KindBSPL,
		MaxFlows:   opt.Flows * 2,
		FlowShards: opt.FlowShards,
	}, pcu.TypeSched)
	inst := benchInstance{}
	a.Bind(pcu.TypeSched, aiu.MatchAll(), &inst, nil)

	r, err := ipcore.New(ipcore.Config{
		Mode: ipcore.ModePlugin, Gates: []pcu.Type{pcu.TypeSched},
		AIU: a, Routes: routes,
		// Deep queues: the timed region enqueues without draining, and a
		// queue-full drop would change what is being measured.
		OutQueueLen: opt.Flows*opt.PerFlow/opt.OutIfs + 4096,
	})
	if err != nil {
		return nil, err
	}
	in := netdev.NewInterface(0, netdev.Config{})
	r.AddInterface(in)
	// Flows spread over OutIfs sink interfaces so the per-interface
	// output lock is not the bottleneck being measured.
	for i := 0; i < opt.OutIfs; i++ {
		idx := int32(100 + i)
		r.AddInterface(netdev.NewInterface(idx, netdev.Config{}))
		routes.Add(pkt.PrefixFrom(pkt.AddrV4(uint32(20+i)<<24), 8), routing.NextHop{IfIndex: idx})
	}

	// Per-flow wire images, shared by all of a flow's packets: steering
	// sends a flow to exactly one worker, so its packets are processed
	// sequentially and in-place TTL rewrites never race.
	buf := make([][]byte, opt.Flows)
	for f := 0; f < opt.Flows; f++ {
		data, err := pkt.BuildUDP(pkt.UDPSpec{
			Src:     pkt.AddrV4(0x0a000000 + uint32(f)),
			Dst:     pkt.AddrV4(uint32(20+f%opt.OutIfs)<<24 | uint32(f)),
			SrcPort: uint16(1000 + f%60000), DstPort: 9,
			TTL: 255, Payload: make([]byte, 64),
		})
		if err != nil {
			return nil, err
		}
		buf[f] = data
	}

	// Prime every flow into the table so the sweep measures the
	// steady-state hit path (the paper's cached-lookup regime).
	now := pkt.Nanotime()
	for f := 0; f < opt.Flows; f++ {
		p, err := pkt.NewPacket(buf[f], 0)
		if err != nil {
			return nil, err
		}
		p.Stamp = now
		r.Forward(p)
	}
	drain(r, opt.OutIfs)

	rows := make([]ParallelRow, 0, len(opt.Workers))
	var base float64
	for _, w := range opt.Workers {
		// Pre-partition by the engine's steering function; packet
		// structs are rebuilt per run (Forward mutates them).
		parts := make([][]*pkt.Packet, w)
		for f := 0; f < opt.Flows; f++ {
			k, err := pkt.ExtractKey(buf[f], 0)
			if err != nil {
				return nil, err
			}
			wi := pkt.SteerWorker(pkt.FlowHash(k), w)
			for j := 0; j < opt.PerFlow; j++ {
				p := &pkt.Packet{Data: buf[f], InIf: 0, OutIf: -1, Stamp: now}
				p.SetKey(k)
				parts[wi] = append(parts[wi], p)
			}
		}

		var wg sync.WaitGroup
		start := time.Now()
		for wi := 0; wi < w; wi++ {
			wg.Add(1)
			go func(list []*pkt.Packet) {
				defer wg.Done()
				for _, p := range list {
					r.Forward(p)
				}
			}(parts[wi])
		}
		wg.Wait()
		elapsed := time.Since(start)
		drain(r, opt.OutIfs)

		total := float64(opt.Flows * opt.PerFlow)
		pps := total / elapsed.Seconds()
		if w == opt.Workers[0] {
			base = pps
		}
		rows = append(rows, ParallelRow{Workers: w, PPS: pps, Speedup: pps / base})
	}
	return rows, nil
}

// drain empties every output queue between runs.
func drain(r *ipcore.Router, outIfs int) {
	for i := 0; i < outIfs; i++ {
		for r.TxDrain(int32(100+i), 1<<16) > 0 {
		}
	}
}

// ParallelTable renders the sweep.
func ParallelTable(rows []ParallelRow) *Table {
	t := &Table{
		Title:  "Parallel forwarding engine: cache-hit throughput vs workers",
		Header: []string{"workers", "throughput", "speedup"},
	}
	for _, row := range rows {
		t.Add(fmt.Sprintf("%d", row.Workers), fmtRate(row.PPS), fmt.Sprintf("%.2fx", row.Speedup))
	}
	t.Note("flow-hash steering: per-flow ordering preserved, each flow-table shard owned by one worker (GOMAXPROCS=%d)", runtime.GOMAXPROCS(0))
	return t
}
