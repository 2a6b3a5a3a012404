// Command eisrbench regenerates every table and figure of the paper's
// evaluation (§7) plus the in-text measurements and the design-choice
// ablations, printing paper-formatted tables.
//
// Usage:
//
//	eisrbench                 # run everything (quick sizes)
//	eisrbench -exp table3     # one experiment
//	eisrbench -full           # paper-scale parameters (slower)
//	eisrbench -list           # list experiment ids
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/routerplugins/eisr/internal/bench"
)

var experiments = []string{
	"table1", "table2", "table3", "flowcache", "hashflood", "dagscale", "gates",
	"drrshare", "hfsc", "schedovh", "sched-scale", "telemetry",
	"parallel", "batch", "faults", "wire", "pathtrace", "fib", "fib-churn",
	"ablate-cache", "ablate-bmp", "ablate-collapse", "ablate-interdag",
}

func main() {
	exp := flag.String("exp", "all", "experiment id (or 'all')")
	full := flag.Bool("full", false, "paper-scale parameters (50k filters, 1000 reps)")
	seed := flag.Int64("seed", 1998, "random seed")
	workers := flag.Int("workers", 0, "max worker count for the parallel sweep (0 = 1,2,4)")
	schedFlows := flag.Int("sched-flows", 0, "sched-scale: cap the largest flow tier (0 = 1M explicit, 100k under -exp all)")
	list := flag.Bool("list", false, "list experiment ids")
	wireDaemon := flag.String("wire-daemon", "", "wire: drive a live eisrd — its ingress -link socket address (default: in-process topology)")
	wireSrc := flag.String("wire-src", "", "wire: sender socket bind address (default 127.0.0.1:0)")
	wireSink := flag.String("wire-sink", "", "wire: sink socket bind address; in daemon mode must match the daemon's egress link peer")
	wirePackets := flag.Int("wire-packets", 0, "wire: packet count (default 10000; 2000 under -exp all)")
	flag.Parse()

	if *list {
		for _, e := range experiments {
			fmt.Println(e)
		}
		return
	}
	run := func(name string) bool { return *exp == "all" || *exp == name }
	ran := false

	if run("table1") {
		ran = true
		fmt.Println(bench.RunTable1())
	}
	if run("table2") {
		ran = true
		counts := []int{16, 1000, 10000}
		if *full {
			counts = []int{16, 1000, 10000, 50000}
		}
		v4 := bench.RunTable2(*seed, counts, false)
		v6 := bench.RunTable2(*seed, counts, true)
		fmt.Println(bench.Table2Breakdown(false))
		fmt.Println(bench.Table2Breakdown(true))
		fmt.Println(bench.Table2Table(v4, v6))
	}
	if run("table3") {
		ran = true
		opts := bench.Table3Options{Reps: 50, PerFlow: 100}
		if *full {
			opts.Reps = 1000
		}
		rows, err := bench.RunTable3(opts)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.Table3Table(rows))
		rows6, err := bench.RunTable3(bench.Table3Options{Reps: opts.Reps / 2, PerFlow: 100, IPv6: true})
		if err != nil {
			fatal(err)
		}
		t := bench.Table3Table(rows6)
		t.Title = "Table 3 (IPv6 variant, as measured in the paper)"
		fmt.Println(t)
	}
	if run("flowcache") {
		ran = true
		res, err := bench.RunFlowCache(*seed, 512, 200_000, 0.9, true)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.FlowCacheTable(res))
	}
	if run("hashflood") {
		ran = true
		opts := bench.HashFloodOptions{Seed: *seed}
		fmt.Println(bench.HashFloodTable(bench.RunHashFlood(opts)))
	}
	if run("dagscale") {
		ran = true
		counts := []int{16, 64, 256, 1024, 4096}
		if *full {
			counts = append(counts, 16384, 50000)
		}
		fmt.Println(bench.DAGScaleTable(bench.RunDAGScale(*seed, counts)))
	}
	if run("gates") {
		ran = true
		fmt.Println(bench.GateScaleTable(bench.RunGateScale(8)))
	}
	if run("drrshare") {
		ran = true
		rows := bench.RunDRRShare([]float64{1, 2, 4}, 1000, 20000, 1e6, 10)
		fmt.Println(bench.DRRShareTable(rows))
	}
	if run("hfsc") {
		ran = true
		fmt.Println(bench.HFSCTable(bench.RunHFSCDecoupling(1e6)))
	}
	if run("schedovh") {
		ran = true
		n := 100_000
		if *full {
			n = 1_000_000
		}
		fmt.Println(bench.SchedOverheadTable(bench.RunSchedOverhead(n)))
	}
	if run("sched-scale") {
		ran = true
		tiers := []int{10_000, 100_000, 1_000_000}
		if *exp == "all" && *schedFlows == 0 && !*full {
			// The million-flow tier is explicit-opt-in territory: under
			// "all" stop at 100k so the whole-suite run stays quick.
			tiers = []int{10_000, 100_000}
		}
		if *schedFlows > 0 {
			capped := tiers[:0]
			for _, n := range tiers {
				if n <= *schedFlows {
					capped = append(capped, n)
				}
			}
			if len(capped) == 0 || capped[len(capped)-1] < *schedFlows {
				capped = append(capped, *schedFlows)
			}
			tiers = capped
		}
		fmt.Println(bench.SchedScaleTable(bench.RunSchedScale(bench.SchedScaleOptions{Tiers: tiers})))
	}
	if run("telemetry") {
		ran = true
		n := 30_000
		if *full {
			n = 300_000
		}
		res, err := bench.RunTelemetry(n)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.TelemetryTable(res))
	}
	if run("parallel") {
		ran = true
		opts := bench.ParallelOptions{}
		if *workers > 0 {
			for w := 1; w <= *workers; w *= 2 {
				opts.Workers = append(opts.Workers, w)
			}
		}
		if *full {
			opts.Flows, opts.PerFlow = 4096, 500
		}
		rows, err := bench.RunParallel(opts)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.ParallelTable(rows))
	}
	if run("batch") {
		ran = true
		opts := bench.BatchSweepOptions{Wire: *exp == "batch"}
		if *full {
			opts.Flows, opts.PerFlow, opts.WirePackets = 4096, 500, 10_000
		}
		rows, err := bench.RunBatchSweep(opts)
		if err != nil {
			fatal(err)
		}
		w := opts.Workers
		if w <= 0 {
			w = 4
		}
		fmt.Println(bench.BatchTable(rows, w))
	}
	if run("faults") {
		ran = true
		opts := bench.FaultsOptions{}
		if *full {
			opts.Packets = 2_000_000
		}
		rows, faults, err := bench.RunFaults(opts)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.FaultsTable(rows, faults))
	}
	if run("wire") {
		ran = true
		opts := bench.WireOptions{
			Packets: *wirePackets, Daemon: *wireDaemon,
			SrcBind: *wireSrc, SinkBind: *wireSink,
		}
		if opts.Packets == 0 && *exp == "all" {
			opts.Packets = 2000
		}
		if *full && *wirePackets == 0 {
			opts.Packets = 100_000
		}
		res, err := bench.RunWire(opts)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.WireTable(res))
		if res.Lost() > 0 {
			fatal(fmt.Errorf("wire: lost %d of %d packets", res.Lost(), res.Packets))
		}
	}
	if run("pathtrace") {
		ran = true
		opts := bench.PathTraceOptions{}
		if *exp == "all" {
			opts.Packets = 1000
		}
		if *full {
			opts.Packets = 20_000
		}
		res, err := bench.RunPathTrace(opts)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.PathTraceTable(res))
		if res.BadSpans > 0 {
			fatal(fmt.Errorf("pathtrace: %d malformed spans", res.BadSpans))
		}
	}
	if run("fib") {
		ran = true
		opts := bench.FIBOptions{Seed: *seed}
		if *exp == "all" && !*full {
			// The million-prefix tier is explicit-opt-in territory
			// (`-exp fib` or -full), same policy as sched-scale.
			opts.Sizes = []int{10_000, 100_000}
		}
		rows, err := bench.RunFIB(opts)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.FIBTable(rows))
	}
	if run("fib-churn") {
		ran = true
		opts := bench.FIBChurnOptions{}
		if *exp == "all" && !*full {
			opts.Routes, opts.Updates, opts.Packets = 10_000, 2_000, 2_000
		}
		res, err := bench.RunFIBChurn(opts)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.FIBChurnTable(res))
		if res.Lost() > 0 {
			fatal(fmt.Errorf("fib-churn: lost %d of %d packets", res.Lost(), res.Packets))
		}
	}
	if run("ablate-cache") {
		ran = true
		fmt.Println(bench.AblateCacheTable(bench.RunAblateCache(*seed, 512, 200_000, 0.9)))
	}
	if run("ablate-bmp") {
		ran = true
		n := 4096
		if *full {
			n = 50000
		}
		fmt.Println(bench.AblateBMPTable(bench.RunAblateBMP(*seed, n), n))
	}
	if run("ablate-interdag") {
		ran = true
		fmt.Println(bench.AblateInterDAGTable(bench.RunAblateInterDAG(*seed, 4, 1000), 4))
	}
	if run("ablate-collapse") {
		ran = true
		fmt.Println(bench.AblateCollapseTable(bench.RunAblateCollapse(*seed)))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", *exp)
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "eisrbench:", err)
	os.Exit(1)
}
