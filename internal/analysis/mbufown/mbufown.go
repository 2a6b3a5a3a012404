// Package mbufown implements the linear-ownership analyzer for packet
// buffers (eisrlint's "mbufown"). The EISR buffer contract — inherited
// from the paper's mbuf recycling discipline and made load-bearing by
// the interfaces' receive mbuf pools and netio's fixed TX wire-buffer
// pools — is that a buffer acquired from a pool is owned by exactly
// one holder, who must pass it on (transmit, enqueue, free-list send,
// steering handoff) on every path. A path that forgets is a pool leak:
// under the fixed-size TX pool of netio, enough leaks brick the link
// with no crash and no counter.
//
// The pass is an intraprocedural may-analysis over the dataflow CFG:
//
//	acquire  x := <-ch, x, ok := <-ch, for x := range ch (ch carries
//	         mbuf pointers), and x := f() where f's name starts with
//	         Poll/Recv/Drain/Dequeue and returns one mbuf pointer
//	release  ch <- x, return x, x stored to a field/global/container,
//	         x captured by a function literal, or x passed to a callee
//	         whose name starts with a handoff verb (Transmit, Inject,
//	         Enqueue, Free, Forward, Deliver, Send, ...)
//
// An mbuf pointer is *pkt.Packet or a pointer to a package-local
// struct whose type declaration carries the //eisr:mbuf marker (netio
// marks wireBuf). Function parameters are borrows, not owners — the
// caller's release is the one that counts — so the lattice stays small
// and the pass stays quiet on plumbing helpers.
//
// Reported defects:
//
//   - leak: some path reaches function exit (or re-acquires into the
//     same variable) still owning the buffer
//   - double release: a release when every path has already released
//   - use after handoff: the buffer is read when every path has
//     already released it
//
// Nil checks refine the state: `if p == nil` ends ownership on the
// true edge (a nil Poll result owns nothing), and the ok of a
// two-valued channel receive guards its buffer the same way.
package mbufown

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/routerplugins/eisr/internal/analysis"
	"github.com/routerplugins/eisr/internal/analysis/dataflow"
)

// Analyzer is the mbufown pass.
var Analyzer = &analysis.Analyzer{
	Name: "mbufown",
	Doc: "report packet buffers that leak, are released twice, or are " +
		"used after handoff on some path",
	Run: run,
}

// acquirePrefixes name the pool-side producers: a single-result call
// whose name starts with one of these and returns an mbuf pointer
// transfers ownership to the caller.
var acquirePrefixes = []string{"poll", "recv", "drain", "dequeue"}

// releasePrefixes name the handoff sinks: passing an owned buffer to a
// callee whose name starts with one of these ends ownership.
var releasePrefixes = []string{
	"transmit", "inject", "submit", "enqueue", "push", "free",
	"release", "recycle", "forward", "process", "deliver", "send",
	"steer", "drop", "put", "handoff",
}

// condHandoffPrefixes name the refusable handoffs: a single bool result
// that is false means the callee did NOT take the buffer (a full worker
// ring sheds) and the caller owns it again. Deliberately narrower than
// releasePrefixes — Forward and Process return a verdict about a packet
// they consumed either way.
var condHandoffPrefixes = []string{"submit", "try", "offer"}

func hasPrefix(name string, prefixes []string) bool {
	lower := strings.ToLower(name)
	for _, p := range prefixes {
		if strings.HasPrefix(lower, p) {
			return true
		}
	}
	return false
}

// Ownership flags. The lattice per variable is the powerset of
// {mayOwn, mayReleased} ordered by inclusion; join is union.
const (
	mayOwn uint8 = 1 << iota
	mayReleased
)

// vstate is one tracked variable's state.
type vstate struct {
	flags uint8
	// acq is the acquisition site, where leaks are reported; name is
	// the variable bound there (moves preserve both).
	acq  token.Pos
	name string
}

// state maps tracked variables to their ownership state. Maps are
// treated as immutable by the solver; mutation copies first.
type state map[*types.Var]vstate

func (s state) clone() state {
	c := make(state, len(s)+1)
	for k, v := range s {
		c[k] = v
	}
	return c
}

func joinState(a, b state) state {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := a.clone()
	for k, bv := range b {
		av, ok := out[k]
		if !ok {
			out[k] = bv
			continue
		}
		av.flags |= bv.flags
		if av.acq == token.NoPos || (bv.acq != token.NoPos && bv.acq < av.acq) {
			av.acq = bv.acq
		}
		out[k] = av
	}
	return out
}

func equalState(a, b state) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok || av != bv {
			return false
		}
	}
	return true
}

func run(pass *analysis.Pass) error {
	mb := newMbufTypes(pass)
	for _, file := range pass.Files {
		name := pass.Fset.Position(file.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			// Test drivers poll and inspect buffers outside the
			// ownership discipline; the contract binds the data path.
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, mb, fd)
		}
	}
	return nil
}

// mbufTypes decides which pointer types carry ownership.
type mbufTypes struct {
	pass *analysis.Pass
	// marked holds package-local struct types declared with //eisr:mbuf.
	marked map[*types.TypeName]bool
}

func newMbufTypes(pass *analysis.Pass) *mbufTypes {
	mb := &mbufTypes{pass: pass, marked: make(map[*types.TypeName]bool)}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if hasMbufMarker(ts.Doc) || (len(gd.Specs) == 1 && hasMbufMarker(gd.Doc)) {
					if tn, ok := pass.Info.Defs[ts.Name].(*types.TypeName); ok {
						mb.marked[tn] = true
					}
				}
			}
		}
	}
	return mb
}

func hasMbufMarker(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == "eisr:mbuf" {
			return true
		}
	}
	return false
}

// isMbufPtr reports whether t is an owned buffer pointer: *pkt.Packet
// or a pointer to an //eisr:mbuf-marked package-local struct.
func (mb *mbufTypes) isMbufPtr(t types.Type) bool {
	ptr, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	tn := named.Obj()
	if mb.marked[tn] {
		return true
	}
	// pkt.Packet is the module-wide packet header; recognized by name
	// so export-data-loaded dependencies (no AST, no markers) match.
	return tn.Name() == "Packet" && tn.Pkg() != nil && tn.Pkg().Name() == "pkt"
}

// mbufChanElem returns true when t is a channel whose element is an
// mbuf pointer.
func (mb *mbufTypes) mbufChanElem(t types.Type) bool {
	ch, ok := t.Underlying().(*types.Chan)
	return ok && mb.isMbufPtr(ch.Elem())
}

// checker carries one function's analysis.
type checker struct {
	pass *analysis.Pass
	mb   *mbufTypes
	// guards maps an ok-variable of a two-valued receive to the buffer
	// variable it guards (`np, ok := <-q`: ok false means np is nil).
	guards map[*types.Var]*types.Var
	// condRelease maps the bool result of a conditional handoff to the
	// buffer it shipped (`ok := q.Offer(p)`: ok false means the
	// handoff was refused and the caller owns p again).
	condRelease map[*types.Var]*types.Var
	// report is nil during solving and set during the reporting pass.
	report func(pos token.Pos, format string, args ...any)
	// reported dedups leak reports by acquisition site.
	reported map[token.Pos]bool
}

func checkFunc(pass *analysis.Pass, mb *mbufTypes, fd *ast.FuncDecl) {
	g := dataflow.Build(fd.Body)
	ck := &checker{
		pass:        pass,
		mb:          mb,
		guards:      make(map[*types.Var]*types.Var),
		condRelease: make(map[*types.Var]*types.Var),
		reported:    make(map[token.Pos]bool),
	}
	res := dataflow.Solve(g, dataflow.Problem[state]{
		Init:     state{},
		Bottom:   nil,
		Transfer: ck.transfer,
		Join:     joinState,
		Refine:   ck.refine,
		Equal:    equalState,
	})
	// Reporting pass: re-run each block's transfer on its solved input
	// with diagnostics enabled, in block order for determinism.
	ck.report = pass.Reportf
	for _, b := range g.Blocks {
		ck.transfer(b, res.In[b.Index])
	}
	// Leaks: any variable that may still be owned at function exit.
	for _, vs := range res.In[g.Exit.Index] {
		if vs.flags&mayOwn != 0 {
			ck.leak(vs)
		}
	}
}

func (ck *checker) leak(vs vstate) {
	if ck.report == nil || vs.acq == token.NoPos || ck.reported[vs.acq] {
		return
	}
	ck.reported[vs.acq] = true
	ck.report(vs.acq, "packet buffer %s may leak: a path neither transmits, frees, nor enqueues it", vs.name)
}

func (ck *checker) reportf(pos token.Pos, format string, args ...any) {
	if ck.report != nil {
		ck.report(pos, format, args...)
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "_"
}

// varOf resolves an expression to the *types.Var it names, or nil.
func (ck *checker) varOf(e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := ck.pass.Info.ObjectOf(id).(*types.Var)
	return v
}

// transfer interprets one block. It never mutates in: every update
// helper copies the map before writing.
func (ck *checker) transfer(b *dataflow.Block, in state) state {
	s := in
	for _, n := range b.Nodes {
		s = ck.node(n, s)
	}
	return s
}

// node interprets one CFG node against s, returning the updated state.
func (ck *checker) node(n ast.Node, s state) state {
	switch n := n.(type) {
	case *ast.AssignStmt:
		return ck.assign(n, s)
	case *ast.DeclStmt:
		return ck.declStmt(n, s)
	case *ast.SendStmt:
		return ck.send(n, s)
	case *ast.ExprStmt:
		return ck.exprStmt(n, s)
	case *ast.ReturnStmt:
		return ck.returnStmt(n, s)
	case *ast.RangeStmt:
		return ck.rangeAcquire(n, s)
	case *ast.GoStmt:
		return ck.consumeCallArgs(n.Call, s, true)
	case *ast.DeferStmt:
		return ck.consumeCallArgs(n.Call, s, true)
	case *ast.IncDecStmt:
		return ck.scanUses(n, s)
	default:
		if e, ok := n.(ast.Expr); ok {
			return ck.scanUses(e, s)
		}
		if st, ok := n.(ast.Stmt); ok {
			return ck.scanUses(st, s)
		}
	}
	return s
}

// acquire marks v as owned from pos, reporting an overwrite of a
// still-owned buffer as a leak of the previous one.
func (ck *checker) acquire(s state, v *types.Var, pos token.Pos) state {
	if v == nil {
		return s
	}
	if old, ok := s[v]; ok && old.flags&mayOwn != 0 {
		ck.leak(old)
	}
	out := s.clone()
	out[v] = vstate{flags: mayOwn, acq: pos, name: v.Name()}
	return out
}

// releaseVar transitions v to released, reporting double release.
func (ck *checker) releaseVar(s state, v *types.Var, pos token.Pos) state {
	vs, ok := s[v]
	if !ok {
		return s
	}
	if vs.flags&mayOwn == 0 && vs.flags&mayReleased != 0 {
		ck.reportf(pos, "packet buffer %s released twice: every path here has already handed it off", v.Name())
	}
	out := s.clone()
	out[v] = vstate{flags: mayReleased, acq: vs.acq, name: vs.name}
	return out
}

// useVar checks a read of v: touching a definitely-released buffer is
// a use-after-handoff.
func (ck *checker) useVar(s state, v *types.Var, pos token.Pos) {
	vs, ok := s[v]
	if !ok {
		return
	}
	if vs.flags&mayOwn == 0 && vs.flags&mayReleased != 0 {
		ck.reportf(pos, "use of packet buffer %s after handoff: every path here has already released it", v.Name())
	}
}

// untrack drops v (moved-from variables own nothing).
func (ck *checker) untrack(s state, v *types.Var) state {
	if _, ok := s[v]; !ok {
		return s
	}
	out := s.clone()
	delete(out, v)
	return out
}

// isAcquireCall reports whether call produces one mbuf pointer from a
// pool-style producer.
func (ck *checker) isAcquireCall(call *ast.CallExpr) bool {
	fn := analysis.CalleeFunc(ck.pass.Info, call)
	if fn == nil || !hasPrefix(fn.Name(), acquirePrefixes) {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() != 1 {
		return false
	}
	return ck.mb.isMbufPtr(sig.Results().At(0).Type())
}

// isBuiltinAppend reports whether call is the append builtin.
func (ck *checker) isBuiltinAppend(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" || len(call.Args) < 2 {
		return false
	}
	_, ok = ck.pass.Info.Uses[id].(*types.Builtin)
	return ok
}

// recvFromMbufChan reports whether e is `<-ch` with ch carrying mbuf
// pointers.
func (ck *checker) recvFromMbufChan(e ast.Expr) bool {
	ue, ok := ast.Unparen(e).(*ast.UnaryExpr)
	if !ok || ue.Op != token.ARROW {
		return false
	}
	tv, ok := ck.pass.Info.Types[ue.X]
	return ok && ck.mb.mbufChanElem(tv.Type)
}

func (ck *checker) assign(n *ast.AssignStmt, s state) state {
	// Conditional handoff with a named result: ok := q.Offer(p).
	// Record the ok→buffer mapping before the call below releases p, so
	// refine can restore ownership on the refused (`if !ok`) branch.
	if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
		if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
			if buf := ck.condHandoffBuf(call, s); buf != nil {
				if okv := ck.varOf(n.Lhs[0]); okv != nil {
					ck.condRelease[okv] = buf
				}
			}
		}
	}
	// Two-valued channel receive: x, ok := <-ch.
	if len(n.Lhs) == 2 && len(n.Rhs) == 1 && ck.recvFromMbufChan(n.Rhs[0]) {
		buf := ck.varOf(n.Lhs[0])
		if okv := ck.varOf(n.Lhs[1]); okv != nil && buf != nil {
			ck.guards[okv] = buf
		}
		return ck.acquire(s, buf, n.Lhs[0].Pos())
	}
	// Batch formation: s = append(s, pk, ...) stores the mbuf into a
	// container exactly like s[i] = pk — the slice owns it now. The
	// vector forwarding loops (run-loop worker, TX drain) hand their whole
	// batch to a forward/transmit sink, which is where the container's
	// contents are consumed.
	if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
		if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok && ck.isBuiltinAppend(call) {
			s = ck.scanUses(call.Args[0], s)
			for _, arg := range call.Args[1:] {
				if v := ck.varOf(arg); v != nil {
					if _, tracked := s[v]; tracked {
						s = ck.releaseVar(s, v, arg.Pos())
						continue
					}
				}
				s = ck.scanUses(arg, s)
			}
			if v := ck.varOf(n.Lhs[0]); v != nil {
				return ck.untrack(s, v)
			}
			return ck.scanUses(n.Lhs[0], s)
		}
	}
	if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
		lhs := ck.varOf(n.Lhs[0])
		rhs := n.Rhs[0]
		// Acquisition: x := <-ch or x := Poll().
		if ck.recvFromMbufChan(rhs) || func() bool {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			return ok && ck.isAcquireCall(call)
		}() {
			s = ck.scanUses(rhs, s)
			if lhs != nil {
				return ck.acquire(s, lhs, n.Lhs[0].Pos())
			}
			return s
		}
		// Move: y = x transfers ownership; s.f = x is an escape;
		// _ = x is a plain read.
		if src := ck.varOf(rhs); src != nil {
			if vs, tracked := s[src]; tracked {
				if lhs != nil {
					s = ck.acquireFrom(s, lhs, vs, n.Lhs[0].Pos())
					return ck.untrack(s, src)
				}
				if isBlank(n.Lhs[0]) {
					ck.useVar(s, src, rhs.Pos())
					return s
				}
				// Stored into a field, map, slice, or dereference: the
				// container owns it now.
				s = ck.scanUses(n.Lhs[0], s)
				return ck.releaseVar(s, src, rhs.Pos())
			}
		}
	}
	// General case: uses on both sides; a tracked LHS variable
	// overwritten by an untracked value is checked for leak-by-
	// overwrite and dropped.
	for _, r := range n.Rhs {
		s = ck.scanUses(r, s)
	}
	for _, l := range n.Lhs {
		if v := ck.varOf(l); v != nil {
			if vs, ok := s[v]; ok {
				if vs.flags&mayOwn != 0 {
					ck.leak(vs)
				}
				s = ck.untrack(s, v)
			}
			continue
		}
		s = ck.scanUses(l, s)
	}
	return s
}

// acquireFrom installs a moved state (used by y = x moves, preserving
// the original acquisition site for leak reporting).
func (ck *checker) acquireFrom(s state, v *types.Var, vs vstate, pos token.Pos) state {
	if old, ok := s[v]; ok && old.flags&mayOwn != 0 {
		ck.leak(old)
	}
	out := s.clone()
	out[v] = vs
	return out
}

func (ck *checker) declStmt(n *ast.DeclStmt, s state) state {
	gd, ok := n.Decl.(*ast.GenDecl)
	if !ok {
		return s
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, val := range vs.Values {
			s = ck.scanUses(val, s)
		}
		for i, name := range vs.Names {
			v, _ := ck.pass.Info.Defs[name].(*types.Var)
			if v == nil {
				continue
			}
			if i < len(vs.Values) {
				if call, ok := ast.Unparen(vs.Values[i]).(*ast.CallExpr); ok && ck.isAcquireCall(call) {
					s = ck.acquire(s, v, name.Pos())
					continue
				}
				if ck.recvFromMbufChan(vs.Values[i]) {
					s = ck.acquire(s, v, name.Pos())
					continue
				}
			}
			s = ck.untrack(s, v)
		}
	}
	return s
}

func (ck *checker) send(n *ast.SendStmt, s state) state {
	s = ck.scanUses(n.Chan, s)
	if v := ck.varOf(n.Value); v != nil {
		if _, tracked := s[v]; tracked {
			return ck.releaseVar(s, v, n.Value.Pos())
		}
	}
	return ck.scanUses(n.Value, s)
}

func (ck *checker) exprStmt(n *ast.ExprStmt, s state) state {
	if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
		return ck.consumeCallArgs(call, s, false)
	}
	return ck.scanUses(n.X, s)
}

// consumeCallArgs handles a call in statement position: tracked mbuf
// arguments to handoff-named callees are released; go/defer calls and
// function-literal captures always consume (the goroutine or closure
// takes over the buffer's fate).
func (ck *checker) consumeCallArgs(call *ast.CallExpr, s state, alwaysConsume bool) state {
	consume := alwaysConsume
	if !consume {
		if fn := analysis.CalleeFunc(ck.pass.Info, call); fn != nil {
			consume = hasPrefix(fn.Name(), releasePrefixes)
		}
	}
	// A release-named method on the buffer itself (p.ReleaseBuf()) ends
	// ownership through the receiver: only identifiers of mbuf pointer
	// type match, so method calls on a flow queue or pool stay reads.
	// The receiver is the release itself, not a preceding read, so the
	// fun scan is skipped when it matches (double release stays the one
	// diagnostic at that site).
	released := false
	if consume {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if v := ck.varOf(sel.X); v != nil && ck.mb.isMbufPtr(v.Type()) {
				if _, tracked := s[v]; tracked {
					s = ck.releaseVar(s, v, sel.X.Pos())
					released = true
				}
			}
		}
	}
	if !released {
		s = ck.scanUses(call.Fun, s)
	}
	for _, arg := range call.Args {
		if v := ck.varOf(arg); v != nil {
			if _, tracked := s[v]; tracked {
				if consume {
					s = ck.releaseVar(s, v, arg.Pos())
				} else {
					ck.useVar(s, v, arg.Pos())
				}
				continue
			}
		}
		s = ck.scanUses(arg, s)
	}
	return s
}

// condHandoffBuf matches a conditional handoff: a release-named callee
// returning exactly one bool, with exactly one tracked mbuf argument. It
// returns that argument's variable, or nil when the shape doesn't match
// (no result, several buffers, untracked argument).
func (ck *checker) condHandoffBuf(call *ast.CallExpr, s state) *types.Var {
	fn := analysis.CalleeFunc(ck.pass.Info, call)
	if fn == nil || !hasPrefix(fn.Name(), condHandoffPrefixes) {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() != 1 {
		return nil
	}
	basic, ok := sig.Results().At(0).Type().Underlying().(*types.Basic)
	if !ok || basic.Kind() != types.Bool {
		return nil
	}
	var buf *types.Var
	for _, arg := range call.Args {
		v := ck.varOf(arg)
		if v == nil || !ck.mb.isMbufPtr(v.Type()) {
			continue
		}
		if _, tracked := s[v]; !tracked {
			continue
		}
		if buf != nil {
			return nil
		}
		buf = v
	}
	return buf
}

// reOwn restores ownership of v: the refused arm of a conditional
// handoff hands the buffer back to the caller, who must dispose of it.
func (ck *checker) reOwn(s state, v *types.Var) state {
	vs, ok := s[v]
	if !ok {
		return s
	}
	out := s.clone()
	out[v] = vstate{flags: mayOwn, acq: vs.acq, name: vs.name}
	return out
}

func (ck *checker) returnStmt(n *ast.ReturnStmt, s state) state {
	for _, r := range n.Results {
		if v := ck.varOf(r); v != nil {
			if _, tracked := s[v]; tracked {
				// Ownership returns to the caller.
				s = ck.releaseVar(s, v, r.Pos())
				continue
			}
		}
		s = ck.scanUses(r, s)
	}
	return s
}

// rangeAcquire handles `for x := range ch` over an mbuf channel: the
// iteration variable is re-acquired once per element.
func (ck *checker) rangeAcquire(n *ast.RangeStmt, s state) state {
	tv, ok := ck.pass.Info.Types[n.X]
	if !ok || !ck.mb.mbufChanElem(tv.Type) {
		return s
	}
	if v := ck.varOf(n.Key); v != nil {
		return ck.acquire(s, v, n.Key.Pos())
	}
	return s
}

// scanUses walks an expression subtree, flagging reads of definitely-
// released buffers and applying release semantics that occur in
// expression position: handoff-named calls (`if r.Forward(p)`),
// composite literals that embed the pointer (`Sent{Pkt: p}` — the
// value outlives the expression), and function-literal captures.
func (ck *checker) scanUses(n ast.Node, s state) state {
	if n == nil {
		return s
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			// Captures escape into the closure.
			s = ck.releaseAllIn(x.Body, s)
			return false
		case *ast.CompositeLit:
			// The literal's value takes over any embedded buffer.
			for _, elt := range x.Elts {
				s = ck.releaseAllIn(elt, s)
			}
			return false
		case *ast.CallExpr:
			s = ck.consumeCallArgs(x, s, false)
			return false
		case *ast.Ident:
			if v, _ := ck.pass.Info.ObjectOf(x).(*types.Var); v != nil {
				ck.useVar(s, v, x.Pos())
			}
		}
		return true
	})
	return s
}

// releaseAllIn releases every tracked buffer referenced inside n:
// closure captures and composite-literal elements hand the buffer to a
// value whose lifetime the pass no longer follows.
func (ck *checker) releaseAllIn(n ast.Node, s state) state {
	ast.Inspect(n, func(y ast.Node) bool {
		if id, ok := y.(*ast.Ident); ok {
			if v, _ := ck.pass.Info.ObjectOf(id).(*types.Var); v != nil {
				if _, tracked := s[v]; tracked {
					s = ck.releaseVar(s, v, id.Pos())
				}
			}
		}
		return true
	})
	return s
}

// refine specializes the state along conditional edges: nil checks and
// receive-ok guards end ownership on the branch where the buffer is
// provably nil.
func (ck *checker) refine(cond ast.Expr, branch bool, s state) state {
	switch c := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		switch c.Op {
		case token.LAND:
			if branch {
				return ck.refine(c.Y, true, ck.refine(c.X, true, s))
			}
		case token.LOR:
			if !branch {
				return ck.refine(c.Y, false, ck.refine(c.X, false, s))
			}
		case token.EQL, token.NEQ:
			v, isNilCmp := ck.nilComparand(c)
			if v == nil || !isNilCmp {
				return s
			}
			nilEdge := (c.Op == token.EQL && branch) || (c.Op == token.NEQ && !branch)
			if nilEdge {
				return ck.clearOwn(s, v)
			}
		}
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			return ck.refine(c.X, !branch, s)
		}
	case *ast.CallExpr:
		// `if !q.Offer(p)`: the condition node already released p
		// (the handoff may succeed), so the false edge — the refused
		// handoff — restores ownership and the shed arm must release.
		if !branch {
			if buf := ck.condHandoffBuf(c, s); buf != nil {
				return ck.reOwn(s, buf)
			}
		}
	case *ast.Ident:
		// `if ok` from x, ok := <-ch: the false edge means no element
		// was received and x is nil.
		if v, _ := ck.pass.Info.ObjectOf(c).(*types.Var); v != nil {
			if buf := ck.guards[v]; buf != nil && !branch {
				return ck.clearOwn(s, buf)
			}
			if buf := ck.condRelease[v]; buf != nil && !branch {
				return ck.reOwn(s, buf)
			}
		}
	}
	return s
}

// nilComparand matches `x == nil` / `x != nil` (either side) and
// returns the compared variable.
func (ck *checker) nilComparand(c *ast.BinaryExpr) (*types.Var, bool) {
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	if isNil(c.Y) {
		return ck.varOf(c.X), true
	}
	if isNil(c.X) {
		return ck.varOf(c.Y), true
	}
	return nil, false
}

func (ck *checker) clearOwn(s state, v *types.Var) state {
	vs, ok := s[v]
	if !ok || vs.flags&mayOwn == 0 {
		return s
	}
	out := s.clone()
	vs.flags &^= mayOwn
	out[v] = vs
	return out
}
