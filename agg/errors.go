package agg

import (
	"fmt"
	"math"
)

// NonFiniteError reports a NaN or ±Inf value or timestamp offered to an
// aggregate's Observe path. Folding such an input into decayed state would
// poison every later query (NaN propagates through the scaled sums and
// sketches irreversibly), so the aggregates reject the observation instead
// and record the first rejection.
type NonFiniteError struct {
	// Agg names the aggregate type, e.g. "Sum".
	Agg string
	// Field names the offending input: "value" or "timestamp".
	Field string
	// X is the offending input.
	X float64
}

func (e *NonFiniteError) Error() string {
	return fmt.Sprintf("agg: %s: non-finite %s %v rejected", e.Agg, e.Field, e.X)
}

// IsFinite reports whether x is neither NaN nor ±Inf — the validity
// predicate applied to every value and timestamp at the ingest boundaries.
func IsFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// inputGuard records the first rejected observation. It is embedded by each
// aggregate; the promoted Err method exposes the sticky error.
type inputGuard struct{ rejErr error }

// reject records (once) and reports that an input was rejected. It returns
// the typed error so call sites can both guard and surface it.
func (g *inputGuard) reject(aggName, field string, x float64) error {
	err := &NonFiniteError{Agg: aggName, Field: field, X: x}
	if g.rejErr == nil {
		g.rejErr = err
	}
	return err
}

// Err returns the first *NonFiniteError recorded by an Observe path, or
// nil if every observation so far was finite. Rejected observations are
// skipped — they never reach the decayed state — so a non-nil Err means
// the aggregate's result reflects only the finite prefix of its input.
func (g *inputGuard) Err() error { return g.rejErr }
