package gsql

import (
	"fmt"
	"slices"
	"strings"
)

// plan is a fully compiled query: every expression of it compiles to
// kernels (vexpr.go), the tuple-level ones into vec and HAVING and the
// select items into out.
type plan struct {
	schema *Schema
	// text is the query the plan was compiled from.
	text string

	// temporalIdx is the index of the group expression defining tumbling
	// time buckets, or -1 (single landmark bucket, flushed at close);
	// temporalCol is the schema column it derives from.
	temporalIdx int
	temporalCol int

	// Aggregates, in slot order.
	aggSpecs  []AggSpec
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

	outNames []string
	// outDirect, when there is no HAVING and every output item is a bare
	// group expression or a bare aggregate naming a slot no other item
	// names, holds each item's record index: the row is then written
	// straight from the group, each slot finalized once in slot order.
	outDirect []int

	// vec holds the tuple-level expressions' kernels (WHERE, group-by,
	// aggregate arguments); out holds HAVING's and the select items' over
	// the record of a flushed group (groupVals ++ aggFinals), and is nil on
	// a plan with outDirect, whose rows never run them.
	vec *vecPlan
	out *outPlan

	// fp fingerprints the (query text, schema) pair for checkpoint
	// compatibility checks; set by Prepare.
	fp uint64
}

// buildPlan analyzes and compiles a parsed query. stripWhere is the
// multi-query runtime's form: the WHERE clause is validated and compiled (so
// its errors surface at plan time) but kept out of the plan, because the
// predicate class applies it once before fanning into the per-query folds.
func buildPlan(q *queryAST, schema *Schema, aggs map[string]AggSpec, stripWhere bool) (*plan, error) {
	p := &plan{schema: schema, temporalIdx: -1, temporalCol: -1, mergeable: true, vec: &vecPlan{}}
	tenv := tupleEnv(schema)
	vc := &vecComp{env: tenv}
	// WHERE clause: tuple-level, no aggregates.
	if q.where != nil {
		if hasAgg(q.where) {
			return nil, fmt.Errorf("gsql: aggregates are not allowed in WHERE")
		}
		wc := vc
		if stripWhere {
			wc = &vecComp{env: tenv}
		}
		n, err := wc.compile(q.where)
		if err != nil {
			return nil, err
		}
		if !stripWhere {
			p.vec.where = vc.asBits(n)
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
		n, err := vc.compile(g.e)
		if err != nil {
			return nil, err
		}
		p.vec.groups = append(p.vec.groups, n)
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
	// argASTs mirrors p.vec.args with the source expressions.
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
		var args []*vecNode
		for _, arg := range a.args {
			if hasAgg(arg) {
				return 0, fmt.Errorf("gsql: nested aggregates are not allowed")
			}
			n, err := vc.compile(arg)
			if err != nil {
				return 0, err
			}
			args = append(args, n)
		}
		slot := len(p.aggSpecs)
		p.aggSpecs = append(p.aggSpecs, spec)
		p.vec.args = append(p.vec.args, args)
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
	nGroups := len(p.vec.groups)
	oc := &vecComp{env: &compileEnv{
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
	}}
	p.out = &outPlan{}
	direct := q.having == nil
	for i, item := range q.sel {
		n, err := oc.compile(item.e)
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
		p.out.items = append(p.out.items, n)
		name := item.alias
		if name == "" {
			name = item.e.String()
		}
		p.outNames = append(p.outNames, name)
	}

	if q.having != nil {
		n, err := oc.compile(q.having)
		if err != nil {
			return nil, err
		}
		p.out.having = oc.asBits(n)
	}
	p.out.nslots = oc.nslots
	if direct {
		p.out = nil // compiled for the aggregate slots it registers
	} else {
		p.outDirect = nil
	}
	p.vec.nslots = vc.nslots

	if len(p.aggSpecs) == 0 && len(q.group) > 0 {
		return nil, fmt.Errorf("gsql: GROUP BY without aggregates is not supported")
	}

	p.links, p.argKeys = shareLinks(p, argASTs)
	p.keyTypes = groupTypes
	for i, t := range groupTypes {
		if t != TInt && t != TBool && t != TFloat || p.vec.groups[i].t != t {
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
