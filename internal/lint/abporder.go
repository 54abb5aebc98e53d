package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// abporder is the memory-ordering necessity analyzer: for every atomic
// variable in a package it classifies the minimal ordering discipline the
// code's happens-before structure actually requires — plain (no concurrent
// conflicting access survives the proof), publish (a release/acquire pair
// suffices), or sc (the variable participates in a CAS arbitration or a
// Dekker store→load handshake, the two shapes the paper's §3.2/Figure 5
// proof leans on) — and cross-checks that classification against the
// discipline the declaration states (the atomicx wrapper types; raw
// sync/atomic counts as an undeclared sc). It reuses abprace's machinery
// wholesale: goroutine-context inference, field-sensitive access
// collection, and the happens-before fact extractors.
//
// The two directions are deliberately asymmetric:
//
//   - Downgrades (over-synchronization findings) must be PROOFS, so they
//     run under adversarial assumptions: the external root is treated as
//     self-concurrent (concurrentAdversarial — a plain-safety argument
//     resting on "callers serialize" is not a license to strip the
//     synchronization those callers may rely on), the variable's own
//     release/acquire edges are excluded (using an atomic to prove itself
//     unnecessary is circular), trusted-handshake suppression is excluded
//     (handshake accesses are the opposite of plain-safe), and any
//     cross-variable store→load sequence (the Dekker shape, detected
//     generously) blocks an sc→publish demotion.
//   - Upgrades (under-synchronization findings) fire only on hard
//     evidence: an arbitration RMW (CompareAndSwap/Swap anywhere, or an
//     Add whose result is consumed — a blind counter increment is
//     commutative and needs no ordering decision) or participation in a
//     declared //abp:handshake protocol.
//
// Per-variable classification is skipped entirely when any collected
// access of the variable sits in a function with no inferred goroutine
// context (an escaping literal with no static invocation edge): such a
// function is a potential hidden writer the pair analysis cannot see.
//
// Findings are suppressed with a justified //abp:order-ignore comment on
// or above the flagged line. abporder inherits abprace's deliberate
// over-approximations (DESIGN.md §11 lists them against §8).

// AbpOrder reports atomic variables whose declared ordering discipline is
// stronger than the proven requirement (over-synchronized) or weaker than
// the evidence demands (under-synchronized), plus loop-invariant atomic
// loads.
var AbpOrder = &Analyzer{
	Name: "abporder",
	Doc:  "classifies the minimal memory-ordering discipline (plain/publish/sc) each atomic variable needs and reports declaration-vs-necessity mismatches and loop-invariant atomic loads",
	Run:  runAbpOrder,
}

// An orderDecl is one atomic variable declaration in scope.
type orderDecl struct {
	pos  token.Pos
	disc string // "sc", "publish", "plain" (atomicx) or "raw" (sync/atomic)
	typ  string // rendered type name for messages
}

type orderAnalysis struct {
	*raceAnalysis
	declared map[*types.Var]*orderDecl
	// hsFns holds the handshake-involved functions: carriers of an
	// //abp:handshake directive and functions named by a store=/load=
	// operand of one. Atomic accesses inside them are sc-justified — the
	// declared protocol is audited by the handshake analyzer.
	hsFns map[*funcNode]bool
	// rmwConsumed marks variables with an atomic Add whose result is
	// consumed: "pending.Add(-1) == 0" is an arbitration (exactly one
	// caller observes zero and acts), unlike a blind counter increment.
	rmwConsumed map[*types.Var]bool
	// dekker marks variables whose atomic store can be followed, in the
	// same function, by an atomic load of a different variable: the
	// store→load fence shape that only sequential consistency provides.
	dekker map[*types.Var]bool
}

func runAbpOrder(pass *Pass) error {
	o := &orderAnalysis{
		raceAnalysis: newRaceAnalysis(pass),
		declared:     map[*types.Var]*orderDecl{},
		hsFns:        map[*funcNode]bool{},
		rmwConsumed:  map[*types.Var]bool{},
		dekker:       map[*types.Var]bool{},
	}
	// Unlike abprace, collect over every function including context-less
	// ones: hidden writers must be visible to the no-writer proof, and
	// the mention-guard needs to know they exist.
	for _, n := range o.graph.nodes {
		o.collect(n)
	}
	o.canonicalize()
	o.findDecls()
	o.findHandshakeFns()
	o.findConsumedRMWs()
	o.findDekkerStores()
	o.checkVars()
	o.checkSites()
	return nil
}

// canonicalize re-keys the collected accesses by types.Var.Origin. In a
// generic type the same field surfaces as distinct instantiation
// variables at different use sites; left split, each partition of the
// accesses can look safely ordered when the union is not.
func (o *orderAnalysis) canonicalize() {
	merged := map[*types.Var][]*raceAccess{}
	for v, accs := range o.accesses {
		merged[v.Origin()] = append(merged[v.Origin()], accs...)
	}
	o.accesses = merged
}

// --- scope discovery ---

// declDiscipline classifies a declared type as an ordering discipline,
// unwrapping one level of slice/array (a field []atomicx.SCPointer[T]
// declares its elements' discipline).
func declDiscipline(t types.Type) (disc, name string, ok bool) {
	switch u := t.(type) {
	case *types.Slice:
		t = u.Elem()
	case *types.Array:
		t = u.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil {
		return "", "", false
	}
	obj := named.Obj()
	if obj.Pkg().Path() == "sync/atomic" {
		return "raw", "atomic." + obj.Name(), true
	}
	if obj.Pkg().Name() == "atomicx" {
		switch {
		case strings.HasPrefix(obj.Name(), "SC"):
			return "sc", "atomicx." + obj.Name(), true
		case strings.HasPrefix(obj.Name(), "Publish"):
			return "publish", "atomicx." + obj.Name(), true
		case strings.HasPrefix(obj.Name(), "Plain"):
			return "plain", "atomicx." + obj.Name(), true
		}
	}
	return "", "", false
}

// findDecls indexes every struct field and package-level variable whose
// declared type is a sync/atomic or atomicx wrapper.
func (o *orderAnalysis) findDecls() {
	info := o.pass.TypesInfo
	record := func(name *ast.Ident) {
		v, ok := info.Defs[name].(*types.Var)
		if !ok || v == nil {
			return
		}
		if disc, typ, ok := declDiscipline(v.Type()); ok {
			o.declared[v] = &orderDecl{pos: name.Pos(), disc: disc, typ: typ}
		}
	}
	for _, f := range o.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.StructType:
				for _, field := range x.Fields.List {
					for _, name := range field.Names {
						record(name)
					}
				}
			case *ast.FuncDecl:
				return false // package-level vars and type decls only
			}
			return true
		})
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, name := range vs.Names {
						record(name)
					}
				}
			}
		}
	}
}

// findHandshakeFns marks directive carriers and the functions their
// store=/load= operands name.
func (o *orderAnalysis) findHandshakeFns() {
	names := map[string]bool{}
	for _, n := range o.graph.nodes {
		if n.decl == nil {
			continue
		}
		if hasDirective(n.decl.Doc, "//abp:handshake") {
			o.hsFns[n] = true
		}
		dirs, _ := parseHandshakeDirectives(n.decl.Doc)
		for _, d := range dirs {
			names[d.store] = true
			names[d.load] = true
		}
	}
	for _, n := range o.graph.nodes {
		if n.decl != nil && names[n.decl.Name.Name] {
			o.hsFns[n] = true
		}
	}
}

// findConsumedRMWs marks variables with an atomic Add whose result is
// used. Calls hanging directly off an ExprStmt (or as a go/defer call)
// discard their result; anything else consumes it.
func (o *orderAnalysis) findConsumedRMWs() {
	info := o.pass.TypesInfo
	for _, f := range o.pass.Files {
		discarded := map[*ast.CallExpr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.ExprStmt:
				if c, ok := ast.Unparen(x.X).(*ast.CallExpr); ok {
					discarded[c] = true
				}
			case *ast.GoStmt:
				discarded[x.Call] = true
			case *ast.DeferStmt:
				discarded[x.Call] = true
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || discarded[call] {
				return true
			}
			callee := calleeFunc(info, call)
			if callee == nil || !strings.HasPrefix(callee.Name(), "Add") {
				return true
			}
			var v *types.Var
			switch {
			case isAtomicMethod(callee):
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					v = leafVar(info, elemBase(ast.Unparen(sel.X)))
				}
			case isAtomicFunc(callee) && len(call.Args) > 0:
				if ue, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr); ok && ue.Op == token.AND {
					v = leafVar(info, elemBase(ast.Unparen(ue.X)))
				}
			}
			if v != nil {
				o.rmwConsumed[v.Origin()] = true
			}
			return true
		})
	}
}

// findDekkerStores marks every variable atomically stored at a point from
// which an atomic load of a DIFFERENT variable is reachable in the same
// function: the store→load sequence whose ordering is exactly what
// sequential consistency adds over release/acquire. The test is
// deliberately generous (any cross-variable sequence, no symmetry
// requirement) because it only ever BLOCKS a demotion — the park/steal
// handshakes span function and package boundaries the per-function fact
// extractor cannot follow, and missing one would demote a load-bearing
// fence.
func (o *orderAnalysis) findDekkerStores() {
	for fn, facts := range o.facts {
		cfg := o.cfg(fn)
		for _, rel := range facts.atomicW {
			if rel.node == nil || rel.v == nil {
				continue
			}
			for _, acq := range facts.atomicR {
				if acq.v == nil || acq.v.Origin() == rel.v.Origin() || acq.node == nil {
					continue
				}
				if rel.node == acq.node || cfg.canReach(rel.node, acq.node) {
					o.dekker[rel.v.Origin()] = true
					break
				}
			}
		}
	}
}

// --- per-variable classification ---

func (o *orderAnalysis) checkVars() {
	vars := make([]*types.Var, 0, len(o.accesses))
	for v := range o.accesses {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i].Pos() < vars[j].Pos() })

	for _, v := range vars {
		accs := o.accesses[v]
		sort.SliceStable(accs, func(i, j int) bool { return accs[i].pos < accs[j].pos })

		decl := o.declared[v]
		hasAtomic := false
		for _, acc := range accs {
			if acc.atomic {
				hasAtomic = true
				break
			}
		}
		if decl == nil {
			if !hasAtomic {
				continue // a plain variable: abprace's territory
			}
			// Function-style atomics on a raw integer field: an
			// undeclared sc discipline, checkable all the same.
			decl = &orderDecl{pos: v.Pos(), disc: "raw", typ: types.TypeString(v.Type(), func(p *types.Package) string { return p.Name() })}
		}
		if v.Pkg() != o.pass.Pkg {
			continue // another package's declaration is its own analyzer run's job
		}

		desc := accs[0].desc
		scEvidence := o.scEvidence(v, accs)

		// Under-synchronization: hard evidence the declaration is too
		// weak. Hidden writers only add requirements, so this check
		// needs no mention-guard.
		if (decl.disc == "publish" || decl.disc == "plain") && scEvidence != "" {
			o.pass.Reportf(decl.pos,
				"%s declares %s ordering (%s) but %s: sc discipline is required (suppress with //abp:order-ignore <justification>)",
				desc, decl.disc, decl.typ, scEvidence)
			continue
		}
		if decl.disc == "plain" {
			o.checkPlainDecl(v, decl, desc, accs)
			continue
		}

		// Downgrade proofs from here on: skip any variable with an
		// access in a context-less function (a potential hidden writer
		// the pair analysis cannot see) or visible outside the package.
		if v.Exported() || o.mentionGuarded(accs) {
			continue
		}
		if o.plainProven(accs) && scEvidence == "" && !o.dekker[v] {
			if decl.disc == "raw" {
				o.pass.Reportf(decl.pos,
					"%s is accessed through sync/atomic but every conflicting access pair is ordered by happens-before edges even under adversarial caller concurrency: plain access suffices (suppress with //abp:order-ignore <justification>)",
					desc)
			} else {
				o.pass.Reportf(decl.pos,
					"%s declares %s ordering (%s) but every conflicting access pair is ordered by happens-before edges even under adversarial caller concurrency: plain discipline suffices (suppress with //abp:order-ignore <justification>)",
					desc, decl.disc, decl.typ)
			}
			continue
		}
		if decl.disc == "sc" && scEvidence == "" && !o.dekker[v] {
			o.pass.Reportf(decl.pos,
				"%s declares sc ordering (%s) but participates in no CAS arbitration, consumed-result RMW, store→load sequence, or declared handshake: publish (release/acquire) discipline suffices (suppress with //abp:order-ignore <justification>)",
				desc, decl.typ)
		}
	}
}

// scEvidence returns a human-readable reason the variable needs sc
// discipline, or "" when no hard evidence exists.
func (o *orderAnalysis) scEvidence(v *types.Var, accs []*raceAccess) string {
	for _, acc := range accs {
		if strings.HasPrefix(acc.op, "CompareAndSwap") || strings.HasPrefix(acc.op, "Swap") {
			return fmt.Sprintf("is arbitrated by %s", acc.op)
		}
	}
	if o.rmwConsumed[v] {
		return "an atomic Add's result is consumed (an arbitration, not a blind increment)"
	}
	for _, acc := range accs {
		if o.hsFns[acc.fn] {
			return fmt.Sprintf("participates in the //abp:handshake protocol through %s", acc.fn.name())
		}
	}
	return ""
}

// mentionGuarded reports whether any access of the variable sits in a
// function with no inferred goroutine context.
func (o *orderAnalysis) mentionGuarded(accs []*raceAccess) bool {
	for _, acc := range accs {
		if len(o.gs.ctx[acc.fn]) == 0 {
			return true
		}
	}
	return false
}

// plainProven reports whether EVERY conflicting access pair (at least one
// side writing — atomicity of the ops themselves is what is on trial, so
// atomic-atomic pairs are not exempt) is ordered under the adversarial
// rules: external self-concurrency, no credit for the trusted-handshake
// suppression, and no credit for atomic release/acquire edges.
func (o *orderAnalysis) plainProven(accs []*raceAccess) bool {
	for i := 0; i < len(accs); i++ {
		for j := i; j < len(accs); j++ {
			x, y := accs[i], accs[j]
			if !x.write && !y.write {
				continue
			}
			for _, rx := range o.gs.ctx[x.fn] {
				for _, ry := range o.gs.ctx[y.fn] {
					if !rx.concurrentAdversarial(ry) {
						continue
					}
					if !o.plainSuppressed(x, y, rx, ry) {
						return false
					}
				}
			}
		}
	}
	return true
}

// plainSuppressed is raceAnalysis.suppressed restricted to the facts a
// plain access may rely on: owner discipline, sync.Once, locksets, and
// the fork/join/channel edges — NOT the trusted-handshake waiver (those
// accesses are the opposite of plain-safe) and NOT atomic release/acquire
// pairing (circular when the atomics themselves are on trial).
func (o *orderAnalysis) plainSuppressed(x, y *raceAccess, rx, ry *gRoot) bool {
	// Owner discipline serializes accesses only while there is a SINGLE
	// owner instance. A go root that may run as several concurrent copies
	// (launched in a loop) makes "owned" mean "owned by one of N workers",
	// which orders nothing on receiver-shared state — so a multi go-root
	// forfeits the owner suppression. The external root keeps it: the
	// owner contract is exactly the documented serialization external
	// callers sign up for, and the owneronly analyzer audits it.
	ownerTrust := func(r *gRoot) bool { return r.external || !r.multi }
	if x.recvDirect && y.recvDirect && o.owned[x.fn] && o.owned[y.fn] &&
		ownerTrust(rx) && ownerTrust(ry) {
		return true
	}
	if x.onceVar != nil && x.onceVar == y.onceVar {
		return true
	}
	if o.lockExcluded(x, y) {
		return true
	}
	return o.plainOrdered(x, rx, y, ry) || o.plainOrdered(y, ry, x, rx)
}

func (o *orderAnalysis) plainOrdered(x *raceAccess, rx *gRoot, y *raceAccess, ry *gRoot) bool {
	if !ry.external && rx != ry && o.beforeLaunch(x, ry) {
		return true
	}
	if !rx.external && rx != ry && o.afterJoin(y, rx) {
		return true
	}
	return o.pairedVia(x, y, o.factsOf(x.fn).sends, o.factsOf(y.fn).recvs)
}

// checkPlainDecl verifies a declared-plain variable the way abprace
// verifies a raw field: under the standard concurrency model with the
// full suppression set. A surviving conflicting pair means plain was the
// wrong declaration.
func (o *orderAnalysis) checkPlainDecl(v *types.Var, decl *orderDecl, desc string, accs []*raceAccess) {
	for i := 0; i < len(accs); i++ {
		for j := i; j < len(accs); j++ {
			x, y := accs[i], accs[j]
			if !x.write && !y.write {
				continue
			}
			for _, rx := range o.gs.ctx[x.fn] {
				for _, ry := range o.gs.ctx[y.fn] {
					if !rx.concurrent(ry) {
						continue
					}
					if o.suppressed(x, y, rx, ry) {
						continue
					}
					o.pass.Reportf(decl.pos,
						"%s declares plain ordering (%s) but has concurrent conflicting accesses with no happens-before edge (%s in %s vs %s in %s): publish or sc discipline is required (suppress with //abp:order-ignore <justification>)",
						desc, decl.typ, x.kind(), x.fn.name(), y.kind(), y.fn.name())
					return
				}
			}
		}
	}
}

// --- per-site checks ---

func (o *orderAnalysis) checkSites() {
	type site struct {
		acc *raceAccess
		v   *types.Var
	}
	var sites []site
	for v, accs := range o.accesses {
		for _, acc := range accs {
			sites = append(sites, site{acc, v})
		}
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i].acc.pos < sites[j].acc.pos })

	for _, s := range sites {
		acc, v := s.acc, s.v
		// Loop-invariant atomic load: an atomic Load inside a CFG cycle
		// of a variable nothing in the package ever writes (hidden
		// writers included — context-less functions were collected). The
		// load's value cannot change across iterations; hoist it.
		if acc.atomic && !acc.write && strings.HasPrefix(acc.op, "Load") &&
			v.Pkg() == o.pass.Pkg && !v.Exported() &&
			o.onCycle(acc) && !o.anyWrite(v) {
			o.pass.Reportf(acc.pos,
				"loop-invariant atomic load of %s: nothing in the package writes it, so the load can be hoisted out of the loop (suppress with //abp:order-ignore <justification>)",
				acc.desc)
		}
	}
}

// onCycle reports whether the access's CFG block lies on a cycle.
func (o *orderAnalysis) onCycle(acc *raceAccess) bool {
	if acc.node == nil {
		return false
	}
	cfg := o.cfg(acc.fn)
	blk, ok := cfg.nodeBlock[acc.node]
	if !ok {
		return false
	}
	return cfg.reachability()[blk.index][blk.index]
}

func (o *orderAnalysis) anyWrite(v *types.Var) bool {
	for _, acc := range o.accesses[v] {
		if acc.write {
			return true
		}
	}
	return false
}
