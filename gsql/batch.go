package gsql

import (
	"fmt"
	"math"
	"math/bits"
)

// Batch is a column-oriented block of tuples sharing one schema: one typed
// vector per schema column plus a selection bitmap. The ingest boundary
// fills batches directly from decoded wire frames (netgen.FillBatch) without
// materializing per-tuple Values; Run.PushBatch and ParallelRun.PushBatch
// then execute the compiled plan over the columns with vectorized kernels.
//
// A Batch is a reusable buffer: Reset and refill it between pushes. It is
// owned by a single producer at a time — PushBatch uses the selection bitmap
// as working state, so a batch must not be pushed into two runs concurrently.
type Batch struct {
	schema *Schema
	n      int
	cols   []batchCol

	// sorted marks the batch's monotone (timestamp) columns as verified
	// non-decreasing, letting the epoch scan and the decay-weight memo hit
	// their distinct-timestamp run-length fast path. Append maintains it;
	// direct column fillers must call SetSorted themselves.
	sorted bool

	// sel is the selection bitmap (bit i = row i survives), managed by
	// PushBatch: rows clear as the finite check and the WHERE predicate
	// reject them. Bits at positions >= Len() are always zero.
	sel []uint64
}

// batchCol is one column vector. Exactly one of the slices is active,
// matching the schema column's type: ints for TInt and TBool (0/1),
// fls for TFloat, strs for TString.
type batchCol struct {
	ints []int64
	fls  []float64
	strs []string
}

// NewBatch returns an empty batch for the schema. Every column must have a
// concrete type (TInt, TFloat, TString or TBool).
func NewBatch(s *Schema) (*Batch, error) {
	if s == nil {
		return nil, fmt.Errorf("gsql: batch needs a schema")
	}
	for _, c := range s.Cols {
		switch c.Type {
		case TInt, TFloat, TString, TBool:
		default:
			return nil, fmt.Errorf("gsql: batch column %q has no concrete type", c.Name)
		}
	}
	return &Batch{schema: s, cols: make([]batchCol, len(s.Cols)), sorted: true}, nil
}

// Len returns the number of rows.
func (b *Batch) Len() int { return b.n }

// Sorted reports whether the batch's monotone columns are known to be
// non-decreasing across its rows.
func (b *Batch) Sorted() bool { return b.sorted }

// SetSorted declares the batch's monotone columns non-decreasing (or not).
// Direct column fillers must only set true when the property actually holds;
// a false claim breaks the epoch scan's run-skipping exactness.
func (b *Batch) SetSorted(sorted bool) { b.sorted = sorted }

// Reset empties the batch for refilling, keeping column capacity.
func (b *Batch) Reset() {
	b.n = 0
	b.sorted = true
}

// Resize sets the row count to n, growing column storage as needed. Existing
// rows are preserved (Append grows one row at a time); rows beyond the old
// length are unspecified until filled. The sorted flag is cleared (fillers
// that know better call SetSorted). Growth is amortized so per-row Append
// stays O(1).
func (b *Batch) Resize(n int) {
	b.n = n
	b.sorted = false
	for i := range b.cols {
		c := &b.cols[i]
		switch b.schema.Cols[i].Type {
		case TInt, TBool:
			if cap(c.ints) < n {
				c.ints = append(c.ints, make([]int64, n-len(c.ints))...)
			}
			c.ints = c.ints[:n]
		case TFloat:
			if cap(c.fls) < n {
				c.fls = append(c.fls, make([]float64, n-len(c.fls))...)
			}
			c.fls = c.fls[:n]
		case TString:
			if cap(c.strs) < n {
				c.strs = append(c.strs, make([]string, n-len(c.strs))...)
			}
			c.strs = c.strs[:n]
		}
	}
}

// Ints returns the column's int64 vector (TInt and TBool columns). It
// panics on other column types — a programming error, not a data error.
func (b *Batch) Ints(col int) []int64 {
	if t := b.schema.Cols[col].Type; t != TInt && t != TBool {
		panic(fmt.Sprintf("gsql: batch column %d is %s, not int", col, t))
	}
	return b.cols[col].ints
}

// Floats returns the column's float64 vector (TFloat columns only).
func (b *Batch) Floats(col int) []float64 {
	if t := b.schema.Cols[col].Type; t != TFloat {
		panic(fmt.Sprintf("gsql: batch column %d is %s, not float", col, t))
	}
	return b.cols[col].fls
}

// Append adds one row from a materialized tuple, maintaining the sorted
// flag by comparing monotone columns against the previous row. Values must
// match the schema's declared column types exactly. Run.Push and
// MultiRun.Push append through here, so the rule is theirs too.
func (b *Batch) Append(t Tuple) error {
	if len(t) != len(b.schema.Cols) {
		return fmt.Errorf("gsql: batch append: tuple has %d values, schema %s has %d columns",
			len(t), b.schema.Name, len(b.schema.Cols))
	}
	for i, v := range t {
		want := b.schema.Cols[i].Type
		if v.T != want {
			return fmt.Errorf("gsql: batch append: column %q expects %s, got %s",
				b.schema.Cols[i].Name, want, v.T)
		}
	}
	n := b.n
	b.Resize(n + 1) // clears sorted; recomputed below
	b.sorted = true
	for i, v := range t {
		c := &b.cols[i]
		switch v.T {
		case TInt, TBool:
			c.ints[n] = v.I
			if b.schema.Cols[i].Monotone && n > 0 && c.ints[n-1] > v.I {
				b.sorted = false
			}
		case TFloat:
			c.fls[n] = v.F
			if b.schema.Cols[i].Monotone && n > 0 && c.fls[n-1] > v.F {
				b.sorted = false
			}
		case TString:
			c.strs[n] = v.S
		}
	}
	return nil
}

// row materializes row i into dst (len == column count), with Values
// bit-identical to the tuple the row was built from.
func (b *Batch) row(i int, dst Tuple) {
	for ci := range b.cols {
		dst[ci] = b.colValue(ci, i)
	}
}

// colValue materializes one cell as a Value.
func (b *Batch) colValue(col, row int) Value {
	c := &b.cols[col]
	switch b.schema.Cols[col].Type {
	case TInt:
		return Int(c.ints[row])
	case TBool:
		return Bool(c.ints[row] != 0)
	case TFloat:
		return Float(c.fls[row])
	default: // TString
		return Str(c.strs[row])
	}
}

// compatibleWith reports whether the batch's schema matches a plan's schema
// structurally (same column count and types — names may differ, e.g. a
// generic packet batch pushed into a stream registered under another name).
func (b *Batch) compatibleWith(s *Schema) bool {
	if b.schema == s {
		return true
	}
	if len(b.schema.Cols) != len(s.Cols) {
		return false
	}
	for i := range s.Cols {
		if b.schema.Cols[i].Type != s.Cols[i].Type {
			return false
		}
	}
	return true
}

// --- selection bitmaps ---

// bitWords returns the word count of an n-bit bitmap.
func bitWords(n int) int { return (n + 63) >> 6 }

// growBits resizes dst to exactly words(n) words (contents unspecified).
func growBits(dst []uint64, n int) []uint64 {
	w := bitWords(n)
	if cap(dst) < w {
		return make([]uint64, w)
	}
	return dst[:w]
}

// markValid sets bits [lo,hi) of dst from src and zeroes the rest. Both
// bitmaps span n rows.
func maskRange(dst, src []uint64, lo, hi int) {
	for w := range dst {
		base := w << 6
		if base+64 <= lo || base >= hi {
			dst[w] = 0
			continue
		}
		m := src[w]
		if base < lo {
			m &^= (1 << uint(lo-base)) - 1
		}
		if base+64 > hi {
			m &= (1 << uint(hi-base)) - 1
		}
		dst[w] = m
	}
}

// popRange counts set bits of sel below row limit.
func popRange(sel []uint64, limit int) int {
	total := 0
	for w := 0; w<<6 < limit; w++ {
		m := sel[w]
		if base := w << 6; base+64 > limit {
			m &= (1 << uint(limit-base)) - 1
		}
		total += bits.OnesCount64(m)
	}
	return total
}

// scanFinite fills valid with one bit per finite row (every float column
// checked, as checkTupleFinite does) and returns the rejected-row count.
// Integer and string columns can never be non-finite, so only TFloat
// columns are scanned.
func (b *Batch) scanFinite(valid []uint64) int {
	for w := range valid {
		valid[w] = ^uint64(0)
	}
	if tail := b.n & 63; tail != 0 {
		valid[len(valid)-1] = (1 << uint(tail)) - 1
	}
	rejected := 0
	for ci := range b.cols {
		if b.schema.Cols[ci].Type != TFloat {
			continue
		}
		fs := b.cols[ci].fls
		for i, x := range fs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				w, bit := i>>6, uint64(1)<<uint(i&63)
				if valid[w]&bit != 0 {
					valid[w] &^= bit
					rejected++
				}
			}
		}
	}
	return rejected
}

// forSel calls f for each selected row in ascending order; f returns false
// to stop the iteration early.
func forSel(sel []uint64, f func(r int) bool) {
	for w, m := range sel {
		if m == 0 {
			continue
		}
		base := w << 6
		for ; m != 0; m &= m - 1 {
			if !f(base + bits.TrailingZeros64(m)) {
				return
			}
		}
	}
}
