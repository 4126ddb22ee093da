// Package sample implements random sampling under forward decay (Section V
// of the forward-decay paper) together with the undecayed and
// backward-decay baselines used in its evaluation:
//
//   - WR: sampling with replacement under any forward decay function in
//     constant space and time per tuple (Theorem 5).
//   - WRS: weighted reservoir sampling without replacement, the algorithm
//     of Efraimidis and Spirakis (Theorem 6).
//   - Priority: priority sampling of Alon, Duffield, Lund and Thorup, with
//     the near-optimal unbiased subset-sum estimator (Theorem 6).
//   - Reservoir: classical unweighted reservoir sampling, Vitter's
//     Algorithm R — the undecayed baseline of Figure 3.
//   - Aggarwal: biased reservoir sampling for exponential decay (Aggarwal,
//     VLDB 2006) — the prior-art baseline of Figure 3, which requires
//     sequential arrivals and supports only exponential decay.
//
// Weights are supplied in the log domain (ln g(tᵢ−L)): all selection logic
// depends only on ratios, so exponential decay over unbounded streams never
// overflows. Because forward and backward exponential decay coincide
// (§III-A), WRS and Priority with exponential log-weights solve the
// exponentially-decayed sampling problem in O(k) space (Corollary 1),
// strictly improving on Aggarwal's method, which is tied to arrival counts.
//
// The Forward* wrappers bind a sampler to a decay.Forward model so callers
// deal only in timestamps. Samplers are deterministic given their seed and
// are not safe for concurrent use.
package sample

import (
	"math"

	"forwarddecay/internal/core"
)

// logUniform returns ln u for u uniform in (0,1), i.e. a draw of −Exp(1).
func logUniform(rng *core.RNG) float64 { return math.Log(rng.Float64()) }
