package gsql

import "math/bits"

// The equality index: one hashed pass per column selects every predicate
// class whose whole WHERE is `col = literal` (or `literal = col`), in place
// of one kernel per class — CACQ's grouped filter, NiagaraCQ's shared
// selection. It covers a column statically int or bool and a literal of
// the column's own type, so the test is the int64 payload compare the
// class's kernel makes (intPredNode's x == y), which cannot fail: the
// selection is the kernel's bitmap row for row, and the class's fails stay
// empty. Every other WHERE — a float column (−0, NaN, int→float
// promotion), a string, a range, and/or, mixed types — runs its kernel.
// An indexed class still compiles its kernel, which nothing runs. A column
// with a single equality class is indexed too: one probe per row costs a
// third of the kernel's compare (BenchmarkMultiEqSelect).

// eqIndex is one column's equality index: a flat open-addressing table
// (linear probing, backward-shift deletion, at most a quarter full) from
// a literal's payload to the classes it selects. Two spellings of one
// predicate are two classes, so a slot holds a list.
type eqIndex struct {
	col     int
	classes int // classes indexed on the column
	used    int // occupied slots
	shift   uint
	slots   []eqSlot
}

// eqSlot is one table slot; an empty slot has no classes.
type eqSlot struct {
	key int64
	cls []*predClass
}

// eqTerm reports the column and literal payload of a WHERE the index can
// serve: `col = literal` or `literal = col`, the column of the schema
// statically int or bool, the literal of the column's type.
func eqTerm(where expr, s *Schema) (col int, key int64, ok bool) {
	b, isBin := where.(*binExpr)
	if !isBin || b.op != "=" {
		return 0, 0, false
	}
	for _, side := range [2][2]expr{{b.l, b.r}, {b.r, b.l}} {
		c, isCol := side[0].(*colRef)
		if !isCol {
			continue
		}
		col = s.ColumnIndex(c.name)
		if col < 0 {
			continue
		}
		if v, lit := literalOf(side[1]); lit && v.T == s.Cols[col].Type && (v.T == TInt || v.T == TBool) {
			return col, v.I, true
		}
	}
	return 0, 0, false
}

// literalOf returns the value of an int or bool literal, negated ints
// included: `-x` on an int is the kernel's wrapping negation.
func literalOf(e expr) (Value, bool) {
	switch n := e.(type) {
	case *numLit:
		return n.v, true
	case *boolLit:
		return Bool(n.b), true
	case *unExpr:
		if v, ok := literalOf(n.e); ok && n.op == "-" && v.T == TInt {
			return Int(-v.I), true
		}
	}
	return Value{}, false
}

// home is the slot a payload's probe starts at (Fibonacci hashing).
func (x *eqIndex) home(key int64) int {
	return int(uint64(key) * 0x9e3779b97f4a7c15 >> x.shift)
}

// find returns the slot holding key, or the empty slot its probe ends at.
func (x *eqIndex) find(key int64) int {
	mask := len(x.slots) - 1
	i := x.home(key)
	for x.slots[i].cls != nil && x.slots[i].key != key {
		i = (i + 1) & mask
	}
	return i
}

// add indexes cls under key.
func (x *eqIndex) add(cls *predClass, key int64) {
	if (x.used+1)*4 > len(x.slots) {
		x.grow()
	}
	i := x.find(key)
	s := &x.slots[i]
	if s.cls == nil {
		s.key = key
		x.used++
	}
	cls.eq, cls.eqKey, cls.eqPos = x, key, len(s.cls)
	s.cls = append(s.cls, cls)
	x.classes++
}

// remove takes cls out of the index (swap-remove from its slot's list,
// backward-shift deletion of an emptied slot).
func (x *eqIndex) remove(cls *predClass) {
	i := x.find(cls.eqKey)
	s := &x.slots[i]
	last := len(s.cls) - 1
	s.cls[cls.eqPos] = s.cls[last]
	s.cls[cls.eqPos].eqPos = cls.eqPos
	s.cls[last] = nil
	s.cls = s.cls[:last]
	cls.eq = nil
	x.classes--
	if last > 0 {
		return
	}
	s.cls = nil
	x.used--
	mask := len(x.slots) - 1
	for j := (i + 1) & mask; x.slots[j].cls != nil; j = (j + 1) & mask {
		// The entry at j may fill the hole at i when i lies on its probe
		// path, from its home to j.
		if (j-x.home(x.slots[j].key))&mask >= (j-i)&mask {
			x.slots[i], x.slots[j] = x.slots[j], eqSlot{}
			i = j
		}
	}
}

// grow doubles the table (sixteen slots at first) and reinserts every slot.
func (x *eqIndex) grow() {
	old := x.slots
	n := max(16, 2*len(old))
	x.slots, x.shift = make([]eqSlot, n), uint(64-bits.TrailingZeros(uint(n)))
	for _, s := range old {
		if s.cls != nil {
			x.slots[x.find(s.key)] = s
		}
	}
}

// selectRows fills the selection of every class on the column for rows
// valid ∩ [lo,hi): one probe per row, and the row's bit set in each class
// its payload selects.
func (x *eqIndex) selectRows(b *Batch, valid []uint64, lo, hi int) {
	wlo, whi := lo>>6, (hi+63)>>6
	for _, s := range x.slots {
		for _, cls := range s.cls {
			cls.sel = growBits(cls.sel, b.n)
			clear(cls.sel[wlo:whi])
			cls.fails = cls.fails[:0]
		}
	}
	ints, mask := b.cols[x.col].ints, len(x.slots)-1
	for w := wlo; w < whi; w++ {
		m, base := valid[w], w<<6
		if base < lo {
			m &^= 1<<uint(lo-base) - 1
		}
		if base+64 > hi {
			m &= 1<<uint(hi-base) - 1
		}
		for ; m != 0; m &= m - 1 {
			r := base + bits.TrailingZeros64(m)
			v := ints[r]
			for i := x.home(v); x.slots[i].cls != nil; i = (i + 1) & mask {
				if x.slots[i].key == v {
					for _, cls := range x.slots[i].cls {
						cls.sel[w] |= 1 << uint(r&63)
					}
					break
				}
			}
		}
	}
}
