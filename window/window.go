// Package window implements the backward-decay competitors that the
// forward-decay paper evaluates against (Section VIII):
//
//   - BackwardSum: sums (counts, over unit values) decayed by an arbitrary
//     backward (age-based) function, maintained over an Exponential
//     Histogram following Cohen and Strauss — the "EH" series of Figure 2.
//     The decay function is chosen at query time, which is exactly the
//     flexibility that costs kilobytes of state per group versus the 8
//     bytes of a forward-decayed sum. The histogram's insert is O(1)
//     amortised, like a forward-decayed fold; what it pays for is that
//     state, which grows with 1/ε and is walked whole by every query.
//
//   - HeavyHitters: sliding-window heavy hitters over a hierarchy of dyadic
//     time blocks, each summarized by a Misra–Gries sketch (in the style of
//     Arasu and Manku; see DESIGN.md for the substitution note). Every
//     arrival updates the newest block of each level — ⌈log₂ 1/ε⌉+1
//     Misra–Gries updates, which is where its time goes, against a single
//     SpaceSaving update — closed blocks are frozen into flat per-level
//     arenas, and queries combine blocks, reproducing the cost gap of
//     Figures 4 and 5.
//
//   - HeavyHitters.DecayedQuery: heavy hitters under an arbitrary backward
//     decay function, obtained by combining the per-block summaries
//     weighted by the decay function evaluated at each block's age — the
//     general backward-decay HH competitor of the paper's experiments.
//
// These structures require timestamps to be non-decreasing (they clamp
// earlier arrivals), unlike the forward-decay algorithms, which are
// order-insensitive. None are safe for concurrent use.
package window
