package gsql

import (
	"fmt"
	"strings"
)

// Engine holds registered streams and aggregate functions and prepares
// queries against them.
type Engine struct {
	streams map[string]*Schema
	aggs    map[string]AggSpec
}

// NewEngine returns an engine with the builtin aggregates registered.
func NewEngine() *Engine {
	return &Engine{
		streams: make(map[string]*Schema),
		aggs:    builtinAggs(),
	}
}

// RegisterStream makes a stream schema queryable in FROM clauses.
func (e *Engine) RegisterStream(s *Schema) error {
	if s == nil || s.Name == "" {
		return fmt.Errorf("gsql: nil or unnamed schema")
	}
	k := strings.ToLower(s.Name)
	if _, dup := e.streams[k]; dup {
		return fmt.Errorf("gsql: stream %s already registered", s.Name)
	}
	e.streams[k] = s
	return nil
}

// RegisterUDAF installs a user-defined aggregate function; queries may then
// call it like any builtin aggregate. This is the extension mechanism the
// paper uses for the holistic aggregates and samplers (no query-language
// changes needed).
func (e *Engine) RegisterUDAF(spec AggSpec) error {
	if err := validateSpec(spec); err != nil {
		return err
	}
	k := strings.ToLower(spec.Name)
	if _, dup := e.aggs[k]; dup {
		return fmt.Errorf("gsql: aggregate %s already registered", spec.Name)
	}
	e.aggs[k] = spec
	return nil
}

// Statement is a prepared query. Prepare once, then create any number of
// independent Runs.
type Statement struct {
	p    *plan
	text string
}

// BatchPredicate returns a vectorized evaluator of the statement's WHERE
// clause: it fills the batch's selection bitmap with the finite rows that
// pass the filter and returns how many survived. Nil when the query has no
// filter. A row the filter fails on fails the call, with the least such
// row's error. The closure owns its scratch state; use one instance per
// goroutine.
func (st *Statement) BatchPredicate() func(*Batch) (int, error) {
	vp := st.p.vec
	if vp.where == nil {
		return nil
	}
	var ctx vctx
	var valid []uint64
	return func(b *Batch) (int, error) {
		ctx.reset(b, vp)
		valid = growBits(valid, b.n)
		b.scanFinite(valid)
		b.sel = growBits(b.sel, b.n)
		maskRange(b.sel, valid, 0, b.n)
		vp.where.run(&ctx, b.sel)
		if fails := ctx.take(nil, nil); len(fails) > 0 {
			return 0, fails[0].err
		}
		wb := ctx.bits(vp.where)
		for w := range b.sel {
			b.sel[w] &= wb[w]
		}
		return popRange(b.sel, b.n), nil
	}
}

// Prepare parses, plans and compiles a query.
func (e *Engine) Prepare(query string) (*Statement, error) {
	ast, err := e.parse(query)
	if err != nil {
		return nil, err
	}
	schema, ok := e.streams[strings.ToLower(ast.from)]
	if !ok {
		return nil, fmt.Errorf("gsql: unknown stream %q", ast.from)
	}
	return e.compile(query, ast, schema, false)
}

// parse parses a query against the engine's registered aggregates.
func (e *Engine) parse(query string) (*queryAST, error) {
	return parseQuery(query, func(name string) bool {
		_, ok := e.aggs[name]
		return ok
	})
}

// compile plans a parsed query over schema into a Statement: Prepare's
// path, and with stripWhere a catalog member's (buildPlan).
func (e *Engine) compile(query string, ast *queryAST, schema *Schema, stripWhere bool) (*Statement, error) {
	p, err := buildPlan(ast, schema, e.aggs, stripWhere)
	if err != nil {
		return nil, err
	}
	p.fp = fingerprint(query, schema.Name)
	return &Statement{p: p, text: query}, nil
}

// Columns returns the output column names.
func (s *Statement) Columns() []string { return s.p.Columns() }

// Describe returns a terse plan summary for diagnostics.
func (s *Statement) Describe() string { return s.p.describe() }

// Start begins an execution run delivering output rows to sink. Each row
// handed to sink is the sink's to keep: the run never writes to it or reuses
// its storage afterwards. (The rows of one bucket flush are cut from one
// allocation, so retaining a single row keeps that flush's rows alive.)
func (s *Statement) Start(sink func(Tuple) error, opts Options) *Run {
	return newRun(s.p, sink, opts)
}
