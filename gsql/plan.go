package gsql

import (
	"fmt"
	"slices"
	"strings"
)

// plan is a fully compiled query. Run and MultiRun evaluate its
// tuple-level expressions through vec alone; their scalar closures (where,
// groupFns, aggArgFns) serve the sharded runtime and temporalOf.
type plan struct {
	schema *Schema
	where  evalFn // nil if absent

	// Group-by expressions evaluated per tuple; groupVals form the group
	// identity.
	groupFns []evalFn
	// temporalIdx is the index of the group expression defining tumbling
	// time buckets, or -1 (single landmark bucket, flushed at close);
	// temporalCol is the schema column it derives from.
	temporalIdx int
	temporalCol int

	// Aggregates, in slot order. aggArgFns[i] are the compiled argument
	// expressions of aggregate i.
	aggSpecs  []AggSpec
	aggArgFns [][]evalFn
	mergeable bool // all aggregates mergeable → two-level split possible
	// links pairs each slot that reads another's state (Sharer) with it;
	// argKeys are the slots' argument expressions.
	links   [][2]int
	argKeys [][]string

	// keyAppend appends the canonical byte key of a group-value tuple,
	// specialized at plan time over the statically inferred group types.
	keyAppend func(dst []byte, gv Tuple) []byte
	// keyTypes are the group expressions' static types when every one is
	// int, bool or float (and the batch kernels agree): a Run then keys its
	// groups by word (groupKey). Nil means byte keys.
	keyTypes []Type
	// bucketAfter reports whether bucket value b is strictly later than cur,
	// specialized to the temporal expression's static type.
	bucketAfter func(b, cur Value) bool

	// Output expressions over the combined record groupVals ++ aggFinals.
	outFns   []evalFn
	outNames []string
	having   evalFn // nil if absent
	// outDirect, when there is no HAVING and every output item is a bare
	// group expression or a bare aggregate naming a slot no other item
	// names, holds each item's record index: the row is then written
	// straight from the group, each slot finalized once in slot order.
	outDirect []int

	// vec is the batch-compiled form of the tuple-level expressions (WHERE,
	// group-by, aggregate arguments); every plan has one.
	vec *vecPlan

	// fp fingerprints the (query text, schema) pair for checkpoint
	// compatibility checks; set by Prepare.
	fp uint64
}

// buildPlan analyzes and compiles a parsed query. stripWhere is the
// multi-query runtime's form: the WHERE clause is validated and compiled (so
// its errors surface at plan time) but kept out of the plan, scalar and
// vectorized, because the predicate class applies it once before fanning
// into the per-query folds.
func buildPlan(q *queryAST, schema *Schema, aggs map[string]AggSpec, stripWhere bool) (*plan, error) {
	p := &plan{schema: schema, temporalIdx: -1, temporalCol: -1, mergeable: true}
	tenv := tupleEnv(schema)
	// WHERE clause: tuple-level, no aggregates.
	if q.where != nil {
		if hasAgg(q.where) {
			return nil, fmt.Errorf("gsql: aggregates are not allowed in WHERE")
		}
		fn, err := tenv.compile(q.where)
		if err != nil {
			return nil, err
		}
		if !stripWhere {
			p.where = fn
		}
	}

	// Group-by expressions: tuple-level; record canonical keys and aliases
	// for matching select items, and find the temporal expression.
	groupKeyToIdx := map[string]int{}
	groupTypes := make([]Type, 0, len(q.group))
	for i, g := range q.group {
		if hasAgg(g.e) {
			return nil, fmt.Errorf("gsql: aggregates are not allowed in GROUP BY")
		}
		fn, err := tenv.compile(g.e)
		if err != nil {
			return nil, err
		}
		p.groupFns = append(p.groupFns, fn)
		groupTypes = append(groupTypes, tenv.staticType(g.e))
		groupKeyToIdx[exprKey(g.e)] = i
		if g.alias != "" {
			groupKeyToIdx[g.alias] = i
		}
		if p.temporalIdx < 0 {
			if col := monotoneCol(g.e, schema); col >= 0 {
				p.temporalIdx = i
				p.temporalCol = col
			}
		}
	}
	p.keyAppend = buildKeyAppender(groupTypes)
	p.bucketAfter = func(b, cur Value) bool { c, _ := compare(b, cur); return c > 0 }
	if p.temporalIdx >= 0 {
		switch groupTypes[p.temporalIdx] {
		case TInt:
			p.bucketAfter = func(b, cur Value) bool { return b.I > cur.I }
		case TFloat:
			p.bucketAfter = func(b, cur Value) bool { return b.F > cur.F }
		}
	}

	// Aggregate slot assignment: identical aggregate calls share a slot.
	// argASTs mirrors p.aggArgFns with the source expressions, for the batch
	// compiler below.
	aggKeyToSlot := map[string]int{}
	var argASTs [][]expr
	addAgg := func(a *aggExpr) (int, error) {
		key := exprKey(a)
		if slot, ok := aggKeyToSlot[key]; ok {
			return slot, nil
		}
		spec, ok := aggs[a.name]
		if !ok {
			return 0, fmt.Errorf("gsql: unknown aggregate %q", a.name)
		}
		nargs := len(a.args)
		if a.star {
			nargs = 0
		}
		if nargs < spec.MinArgs || nargs > spec.MaxArgs {
			return 0, fmt.Errorf("gsql: %s expects between %d and %d argument(s), got %d",
				a.name, spec.MinArgs, spec.MaxArgs, nargs)
		}
		var argFns []evalFn
		for _, arg := range a.args {
			if hasAgg(arg) {
				return 0, fmt.Errorf("gsql: nested aggregates are not allowed")
			}
			fn, err := tenv.compile(arg)
			if err != nil {
				return 0, err
			}
			argFns = append(argFns, fn)
		}
		slot := len(p.aggSpecs)
		p.aggSpecs = append(p.aggSpecs, spec)
		p.aggArgFns = append(p.aggArgFns, argFns)
		argASTs = append(argASTs, a.args)
		if !spec.Mergeable {
			p.mergeable = false
		}
		aggKeyToSlot[key] = slot
		return slot, nil
	}

	// Output expressions evaluate against groupVals ++ aggFinals. A select
	// item subtree that textually matches a group-by expression (or its
	// alias) compiles to a reference; aggregate calls compile to their slot.
	nGroups := len(p.groupFns)
	outEnv := &compileEnv{
		resolve: func(name string) int {
			if idx, ok := groupKeyToIdx[name]; ok {
				return idx
			}
			return -1
		},
		aggSlot: func(a *aggExpr) (int, error) {
			slot, err := addAgg(a)
			if err != nil {
				return 0, err
			}
			return nGroups + slot, nil
		},
		subMatch: func(e expr) int {
			if _, isAgg := e.(*aggExpr); !isAgg { // GROUP BY holds no aggregate
				if idx, ok := groupKeyToIdx[exprKey(e)]; ok {
					return idx
				}
			}
			return -1
		},
		funcs: builtinFuncs,
	}

	direct := q.having == nil
	for i, item := range q.sel {
		fn, err := outEnv.compile(item.e)
		if err != nil {
			return nil, err
		}
		key := exprKey(item.e)
		src, ok := groupKeyToIdx[key]
		if _, isAgg := item.e.(*aggExpr); isAgg {
			src = nGroups + aggKeyToSlot[key]
			ok = !slices.Contains(p.outDirect, src)
		}
		direct = direct && ok
		p.outDirect = append(p.outDirect, src)
		// Non-aggregate select items must be derived from the group-by
		// expressions; a bare column that is neither grouped nor aliased
		// has no well-defined value per group.
		if !hasAgg(item.e) && !derivesFromGroups(item.e, groupKeyToIdx) {
			return nil, fmt.Errorf("gsql: select item %d (%s) is neither an aggregate nor a group-by expression",
				i+1, item.e.String())
		}
		p.outFns = append(p.outFns, fn)
		name := item.alias
		if name == "" {
			name = item.e.String()
		}
		p.outNames = append(p.outNames, name)
	}

	if !direct {
		p.outDirect = nil
	}
	if q.having != nil {
		fn, err := outEnv.compile(q.having)
		if err != nil {
			return nil, err
		}
		p.having = fn
	}

	if len(p.aggSpecs) == 0 && len(q.group) > 0 {
		return nil, fmt.Errorf("gsql: GROUP BY without aggregates is not supported")
	}

	// Batch-compile the tuple-level expressions from the same ASTs the scalar
	// closures came from.
	groupASTs := make([]expr, len(q.group))
	for i, g := range q.group {
		groupASTs[i] = g.e
	}
	vecWhere := q.where
	if stripWhere {
		vecWhere = nil
	}
	vec, err := compileVecPlan(tenv, schema, vecWhere, groupASTs, argASTs)
	if err != nil {
		return nil, err
	}
	p.vec = vec
	p.links, p.argKeys = shareLinks(p, argASTs)
	p.keyTypes = groupTypes
	for i, t := range groupTypes {
		if t != TInt && t != TBool && t != TFloat || vec.groups[i].t != t {
			p.keyTypes = nil
		}
	}
	return p, nil
}

// shareLinks finds the slots that read another slot's state: on one probe
// group, each Sharer slot in turn is offered every other slot that neither
// reads another's state nor is read yet.
func shareLinks(p *plan, argASTs [][]expr) (links [][2]int, keys [][]string) {
	if !slices.ContainsFunc(p.aggSpecs, func(s AggSpec) bool { return s.Shares }) {
		return nil, nil
	}
	keys = make([][]string, len(argASTs))
	for i, args := range argASTs {
		keys[i] = make([]string, len(args))
		for ai, a := range args {
			keys[i][ai] = exprKey(a)
		}
	}
	aggs := newAggs(p)
	const reads, read = 1, 2
	role := make([]byte, len(aggs))
	for j, a := range aggs {
		if s, ok := a.(Sharer); ok && p.aggSpecs[j].Shares && role[j] == 0 {
			for i, o := range aggs {
				if i != j && role[i] != reads && s.Share(o, keys[j], keys[i]) {
					links = append(links, [2]int{j, i})
					role[j], role[i] = reads, read
					break
				}
			}
		}
	}
	return links, keys
}

// link replays the plan's links on one group's fresh aggregators.
func (p *plan) link(aggs []Aggregator) {
	for _, l := range p.links {
		aggs[l[0]].(Sharer).Share(aggs[l[1]], p.argKeys[l[0]], p.argKeys[l[1]])
	}
}

// derivesFromGroups reports whether every leaf of e is a literal or matches
// a group-by expression/alias.
func derivesFromGroups(e expr, groups map[string]int) bool {
	if _, ok := groups[exprKey(e)]; ok {
		return true
	}
	switch n := e.(type) {
	case *numLit, *strLit, *boolLit:
		return true
	case *colRef:
		_, ok := groups[n.name]
		return ok
	case *unExpr:
		return derivesFromGroups(n.e, groups)
	case *binExpr:
		return derivesFromGroups(n.l, groups) && derivesFromGroups(n.r, groups)
	case *callExpr:
		for _, a := range n.args {
			if !derivesFromGroups(a, groups) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// temporalOf evaluates the temporal group expression for a heartbeat: a
// synthetic tuple carrying ts in the temporal source column.
func (p *plan) temporalOf(ts Value) (Value, error) {
	if p.temporalIdx < 0 || p.temporalCol < 0 {
		return Null, fmt.Errorf("gsql: query has no temporal bucket")
	}
	scratch := make(Tuple, len(p.schema.Cols))
	scratch[p.temporalCol] = ts
	return p.groupFns[p.temporalIdx](scratch)
}

// Columns returns the output column names, in select-list order.
func (p *plan) Columns() []string {
	out := make([]string, len(p.outNames))
	copy(out, p.outNames)
	return out
}

// describe renders a terse plan summary (used by tests and the CLI).
func (p *plan) describe() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "groups=%d aggs=%d temporal=%d mergeable=%v",
		len(p.vec.groups), len(p.aggSpecs), p.temporalIdx, p.mergeable)
	if p.links != nil {
		fmt.Fprintf(&sb, " shared=%v", p.links) // [slot, slot it reads]
	}
	return sb.String()
}
