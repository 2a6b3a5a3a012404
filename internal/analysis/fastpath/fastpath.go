// Package fastpath enforces the per-packet-path discipline of §3.2 and
// §5.2: the gate macro and the flow-cache hit path must reach a plugin
// instance in a handful of memory accesses — no formatting, no
// allocation, no defer bookkeeping, no exclusive locks. Roots are
// functions marked //eisr:fastpath; the pass walks the static call
// graph inside the package from those roots (dynamic interface calls —
// the plugin indirection itself — and cross-package calls are each
// package's own responsibility: hot functions carry their own marker).
// A call into an //eisr:slowpath function is the architectural
// fast/slow split (first-packet classification, ICMP errors) and ends
// traversal.
package fastpath

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/routerplugins/eisr/internal/analysis"
)

// Analyzer is the fastpath pass.
var Analyzer = &analysis.Analyzer{
	Name: "fastpath",
	Doc: "reject blocking and allocating constructs in //eisr:fastpath code: " +
		"fmt/log calls, make and map/slice literals, defer, channel operations, " +
		"and exclusive mutex acquisition (RLock is allowed); a select with a " +
		"default clause cannot block and is exempt, along with its case " +
		"send/receive operations (the wire-driver backpressure idiom); " +
		"telemetry record methods are certified safe, telemetry " +
		"registration/snapshot is not",
	Run: run,
}

// telemetryPkg is the instrumentation package. Its per-packet record
// methods are certified fast-path-safe here (each is itself an
// //eisr:fastpath root analyzed in its own package: nil-safe, atomic,
// allocation-free), so instrumented hot paths need no suppressions. The
// rest of its surface — registration, snapshot, exposition — allocates
// and takes locks, and belongs to assembly or control time.
const telemetryPkg = "github.com/routerplugins/eisr/internal/telemetry"

// telemetryFast is the certified record-method allowlist, keyed
// "Type.Method".
var telemetryFast = map[string]bool{
	"Counter.Inc": true, "Counter.Add": true, "Counter.Value": true,
	"Gauge.Set": true, "Gauge.Add": true, "Gauge.Inc": true,
	"Gauge.Dec": true, "Gauge.Value": true, "Histogram.Observe": true,
	"SchedMetrics.RecordEnqueue": true, "SchedMetrics.RecordDequeue": true,
	"SchedMetrics.SetQueues": true, "SchedMetrics.RecordHorizonClamp": true,
	"TraceEntry.RecordKey": true, "TraceEntry.RecordHop": true,
	"TraceEntry.RecordClassify": true, "TraceEntry.Commit": true,
	"TraceRing.Acquire": true, "TraceRing.Skipped": true,
	"Telemetry.Tracer":     true,
	"Telemetry.PathTracer": true, "PathTracer.Enabled": true,
	"PathTracer.Origin": true, "PathTracer.Router": true,
	"PathTracer.Fold":   true,
	"Telemetry.Journal": true, "Journal.Record": true,
}

func run(pass *analysis.Pass) error {
	decls := analysis.FuncDeclOf(pass)

	// Seed the worklist from the marked roots.
	var work []*types.Func
	slow := make(map[*types.Func]bool)
	for obj, fd := range decls {
		if analysis.HasMarker(fd, "fastpath") {
			work = append(work, obj)
		}
		if analysis.HasMarker(fd, "slowpath") {
			slow[obj] = true
		}
	}

	seen := make(map[*types.Func]bool)
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[obj] || slow[obj] {
			continue
		}
		seen[obj] = true
		fd := decls[obj]
		if fd == nil || fd.Body == nil {
			continue
		}
		checkBody(pass, fd, func(callee *types.Func) {
			if callee.Pkg() == pass.Pkg && decls[callee] != nil && !seen[callee] {
				work = append(work, callee)
			}
		})
	}
	return nil
}

// nonblockingSelects records every select statement with a default
// clause in the body, together with its case send/receive operations. A
// default clause makes the whole statement non-blocking — the
// poll/offer idiom the wire drivers use for ring backpressure — so none
// of those nodes is a blocking hazard.
func nonblockingSelects(body *ast.BlockStmt) map[ast.Node]bool {
	exempt := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, c := range sel.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			return true
		}
		exempt[sel] = true
		for _, c := range sel.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			switch comm := cc.Comm.(type) {
			case *ast.SendStmt:
				exempt[comm] = true
			case *ast.ExprStmt:
				if u, ok := comm.X.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					exempt[u] = true
				}
			case *ast.AssignStmt:
				for _, rhs := range comm.Rhs {
					if u, ok := rhs.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
						exempt[u] = true
					}
				}
			}
		}
		return true
	})
	return exempt
}

// checkBody flags forbidden constructs in one fast-path function and
// feeds same-package static callees to the traversal.
func checkBody(pass *analysis.Pass, fd *ast.FuncDecl, edge func(*types.Func)) {
	name := fd.Name.Name
	exempt := nonblockingSelects(fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			pass.Reportf(n.Pos(), "%s: defer on the fast path (unlock explicitly; defer is per-packet bookkeeping)", name)
		case *ast.SendStmt:
			if !exempt[n] {
				pass.Reportf(n.Pos(), "%s: channel send on the fast path (may block the data-path goroutine)", name)
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !exempt[n] {
				pass.Reportf(n.Pos(), "%s: channel receive on the fast path (may block the data-path goroutine)", name)
			}
		case *ast.SelectStmt:
			if !exempt[n] {
				pass.Reportf(n.Pos(), "%s: select without a default clause on the fast path (may block the data-path goroutine)", name)
			}
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "%s: goroutine launch on the fast path", name)
		case *ast.CompositeLit:
			switch pass.Info.Types[n].Type.Underlying().(type) {
			case *types.Map:
				pass.Reportf(n.Pos(), "%s: map literal allocates on the fast path", name)
			case *types.Slice:
				pass.Reportf(n.Pos(), "%s: slice literal allocates on the fast path", name)
			}
		case *ast.CallExpr:
			checkCall(pass, name, n, edge)
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, name string, call *ast.CallExpr, edge func(*types.Func)) {
	// Builtin make always allocates; append may grow its backing array
	// (a batch loop that appends must run over preallocated scratch and
	// carry an //eisr:allow(fastpath) stating the capacity argument).
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new":
				pass.Reportf(call.Pos(), "%s: %s allocates on the fast path", name, b.Name())
			case "append":
				pass.Reportf(call.Pos(), "%s: append may grow and allocate on the fast path (preallocate the scratch and bound the batch to its cap)", name)
			}
			return
		}
	}
	callee := analysis.CalleeFunc(pass.Info, call)
	if callee == nil || callee.Pkg() == nil {
		return
	}
	switch callee.Pkg().Path() {
	case "fmt", "log":
		pass.Reportf(call.Pos(), "%s: calls %s.%s on the fast path (formats and allocates)",
			name, callee.Pkg().Name(), callee.Name())
		return
	case "sync":
		if recv := analysis.RecvNamed(callee); recv != nil {
			switch recv.Obj().Name() + "." + callee.Name() {
			case "Mutex.Lock", "RWMutex.Lock":
				pass.Reportf(call.Pos(), "%s: acquires exclusive %s.%s on the fast path (cache hits must not serialize; use RLock or atomics)",
					name, recv.Obj().Name(), callee.Name())
			}
		}
		return
	case telemetryPkg:
		if callee.Pkg() == pass.Pkg {
			break // analyzing telemetry itself: normal traversal
		}
		key := callee.Name()
		if recv := analysis.RecvNamed(callee); recv != nil {
			key = recv.Obj().Name() + "." + callee.Name()
		}
		if !telemetryFast[key] {
			pass.Reportf(call.Pos(), "%s: calls telemetry.%s on the fast path (registration/snapshot allocates; wire cells at assembly time)",
				name, key)
		}
		return
	}
	edge(callee)
}
