// Command eisrd runs the Extended Integrated Services Router: it
// assembles the core, interfaces, classifier and plugin registry, runs
// an optional boot configuration script (the paper's "configuration
// script during system initialization"), serves the control socket for
// pmgr and the daemons, and forwards packets until interrupted.
//
//	eisrd -ctl 127.0.0.1:4242 -ifaces 4 -config router.conf
//
// The configuration script holds pmgr commands, one per line:
//
//	load drr
//	create drr iface=1 quantum=1500
//	register drr drr0 filter='<129.*.*.*, *, TCP, *, *, *>' weight=4
//	route add 0.0.0.0/0 dev 1
//
// Interfaces can be backed by real sockets with -link (repeatable): each
// entry binds a local UDP socket for one interface and carries its
// traffic to a peer eisrd as UDP-encapsulated IP datagrams:
//
//	eisrd -ctl 127.0.0.1:4242 -link '0=127.0.0.1:9000,127.0.0.1:9100' \
//	      -link '1=127.0.0.1:9001,127.0.0.1:9101'
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"github.com/routerplugins/eisr"
	"github.com/routerplugins/eisr/internal/routefeed"
)

func main() {
	ctlAddr := flag.String("ctl", "127.0.0.1:4242", "control socket listen address")
	nIfaces := flag.Int("ifaces", 2, "number of simulated interfaces")
	bestEffort := flag.Bool("best-effort", false, "run the monolithic best-effort kernel (no plugins)")
	bmpKind := flag.String("bmp", "", "BMP algorithm for FIB and classifier: linear|patricia|bspl|cpe (empty: cpe FIB, bspl classifier)")
	config := flag.String("config", "", "boot configuration script")
	verify := flag.Bool("verify-checksums", true, "validate IPv4 header checksums")
	routed := flag.Bool("routed", false, "run the distance-vector route daemon")
	originate := flag.String("originate", "", "comma-separated PREFIX@IFINDEX list the route daemon originates")
	metricsAddr := flag.String("metrics", "", "serve Prometheus /metrics and /debug/pprof on this address (enables telemetry)")
	traceBuf := flag.Int("trace-buffer", 0, "packet trace ring size (entries, 0 = default; needs -metrics)")
	traceSample := flag.Int("trace-sample", 1, "trace every Nth packet (needs -metrics)")
	routerID := flag.Uint("router-id", 0, "router id stamped into in-band path-trace hop records (needs -metrics)")
	pathSample := flag.Int("path-sample", 0, "give 1-in-N packets an in-band trace context at this router (0 = off; runtime-settable via 'pmgr pathtrace N'; needs -metrics)")
	workers := flag.Int("workers", 0, "forwarding workers (0 or 1 = single-threaded; >1 steers packets by flow hash)")
	faultPolicy := flag.String("fault-policy", "drop", "packet fate when a plugin dispatch panics: drop|forward")
	faultThreshold := flag.Int("fault-threshold", 0, "quarantine an instance after N faults in the window (0 = default 5; negative = never)")
	faultWindow := flag.Duration("fault-window", 0, "sliding window for -fault-threshold (0 = default 10s)")
	feedBatch := flag.Int("feed-batch", 0, "route-feed batch size: a live feed's pending updates flush into one snapshot at this count (0 = default 1024)")
	feedFlush := flag.Duration("feed-flush", 0, "route-feed timer flush interval for partial batches (0 = default 50ms)")
	var links linkFlags
	flag.Var(&links, "link", "back an interface with a UDP overlay link: IFINDEX=LOCAL,PEER (repeatable; PEER may be empty)")
	var routes stringFlags
	flag.Var(&routes, "route", "install a static route at boot: 'PREFIX dev N [via GW] [metric M]' (repeatable; all -route flags load as one batch)")
	var feeds stringFlags
	flag.Var(&feeds, "feed", "attach a route-feed source: file:PATH (full-table dump) or tcp:HOST:PORT (live line-protocol stream; repeatable)")
	flag.Parse()

	r, err := eisr.New(eisr.Options{
		BestEffort:      *bestEffort,
		BMP:             *bmpKind,
		VerifyChecksums: *verify,
		Telemetry:       *metricsAddr != "",
		TraceBuffer:     *traceBuf,
		TraceSample:     *traceSample,
		RouterID:        uint32(*routerID),
		PathSample:      *pathSample,
		Workers:         *workers,
		FaultPolicy:     *faultPolicy,
		FaultThreshold:  *faultThreshold,
		FaultWindow:     *faultWindow,
	})
	if err != nil {
		log.Fatalf("eisrd: %v", err)
	}
	for i := 0; i < *nIfaces; i++ {
		if _, err := r.AddInterface(int32(i), fmt.Sprintf("sim%d", i), ""); err != nil {
			log.Fatalf("eisrd: interface %d: %v", i, err)
		}
	}
	for _, lk := range links {
		link, err := r.AttachUDPLink(lk.iface, lk.local, lk.peer)
		if err != nil {
			log.Fatalf("eisrd: link %d: %v", lk.iface, err)
		}
		log.Printf("eisrd: interface %d wired: %s -> %q", lk.iface, link.LocalAddr(), lk.peer)
	}
	if len(routes) > 0 {
		if err := r.AddRoutes(routes); err != nil {
			log.Fatalf("eisrd: -route: %v", err)
		}
		log.Printf("eisrd: %d static routes loaded in one batch", len(routes))
	}
	if len(feeds) > 0 || *feedBatch > 0 || *feedFlush > 0 {
		// Enable the feed before -routed below so the route daemon's
		// churn is accounted through the same feed machinery.
		r.EnableFeed(routefeed.Options{BatchMax: *feedBatch, FlushEvery: *feedFlush})
		for _, spec := range feeds {
			if err := r.AttachFeed(spec); err != nil {
				log.Fatalf("eisrd: -feed: %v", err)
			}
			log.Printf("eisrd: route feed attached: %s", spec)
		}
	}
	if *config != "" {
		if err := runScript(r, *config); err != nil {
			log.Fatalf("eisrd: config: %v", err)
		}
	}

	ln, err := net.Listen("tcp", *ctlAddr)
	if err != nil {
		log.Fatalf("eisrd: control socket: %v", err)
	}
	go func() {
		if err := r.ServeControl(ln); err != nil {
			log.Printf("eisrd: control server stopped: %v", err)
		}
	}()
	log.Printf("eisrd: control socket on %s, %d interfaces, %d plugin modules available",
		ln.Addr(), *nIfaces, len(eisr.Modules()))

	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if err := r.Telemetry.WritePrometheus(w); err != nil {
				log.Printf("eisrd: /metrics: %v", err)
			}
		})
		// Readiness: 200 only while the router is serving (past Start,
		// not yet into Stop). Scripts poll this instead of sleeping.
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			// Status code only: probes (curl -f, CI scripts) read the
			// code, and a body write error has nowhere to surface.
			if r.Serving() {
				w.WriteHeader(http.StatusOK)
				return
			}
			w.WriteHeader(http.StatusServiceUnavailable)
		})
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		srv := &http.Server{Addr: *metricsAddr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("eisrd: metrics server stopped: %v", err)
			}
		}()
		log.Printf("eisrd: telemetry on http://%s/metrics (pprof under /debug/pprof/)", *metricsAddr)
	}

	if *routed {
		d := r.EnableRouteDaemon()
		for _, spec := range strings.Split(*originate, ",") {
			if spec == "" {
				continue
			}
			prefix, ifStr, ok := strings.Cut(spec, "@")
			if !ok {
				log.Fatalf("eisrd: -originate entries are PREFIX@IFINDEX, got %q", spec)
			}
			idx, err := strconv.Atoi(ifStr)
			if err != nil {
				log.Fatalf("eisrd: bad interface in %q", spec)
			}
			if err := d.Originate(prefix, int32(idx)); err != nil {
				log.Fatalf("eisrd: originate %q: %v", spec, err)
			}
		}
		done := make(chan struct{})
		defer close(done)
		go d.Serve(done)
		log.Printf("eisrd: route daemon running")
	}

	r.Start()
	defer r.Stop()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	log.Printf("eisrd: shutting down; core stats: %+v", r.Core.Stats())
}

// stringFlags collects a repeatable string flag (-route, -feed).
type stringFlags []string

func (f *stringFlags) String() string { return strings.Join(*f, " ") }

func (f *stringFlags) Set(v string) error {
	*f = append(*f, v)
	return nil
}

// linkSpec is one parsed -link entry.
type linkSpec struct {
	iface int32
	local string
	peer  string
}

// linkFlags collects repeated -link IFINDEX=LOCAL,PEER flags.
type linkFlags []linkSpec

func (f *linkFlags) String() string {
	var parts []string
	for _, lk := range *f {
		parts = append(parts, fmt.Sprintf("%d=%s,%s", lk.iface, lk.local, lk.peer))
	}
	return strings.Join(parts, " ")
}

func (f *linkFlags) Set(v string) error {
	idxStr, rest, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want IFINDEX=LOCAL,PEER, got %q", v)
	}
	idx, err := strconv.Atoi(strings.TrimSpace(idxStr))
	if err != nil {
		return fmt.Errorf("bad interface index in %q", v)
	}
	local, peer, _ := strings.Cut(rest, ",")
	local = strings.TrimSpace(local)
	if local == "" {
		return fmt.Errorf("want a local bind address in %q", v)
	}
	*f = append(*f, linkSpec{iface: int32(idx), local: local, peer: strings.TrimSpace(peer)})
	return nil
}

// runScript executes a boot configuration script through the same
// dispatch path the control socket uses.
func runScript(r *eisr.Router, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return r.RunConfigScript(f)
}
