// Package netgen synthesizes network packet streams with the
// characteristics the forward-decay paper's evaluation depends on: Zipfian
// destination popularity (tens of thousands of active groups per minute),
// realistic packet-size mixtures, a TCP/UDP split, flow structure, Poisson
// arrivals at a configurable rate, and optional out-of-order delivery.
//
// It stands in for the live 400,000 packet/s (≈1.8 Gbit/s) tap of the
// paper's §VIII (see DESIGN.md, substitution 1). Generation is
// deterministic given the seed, so every experiment and test in this
// repository is reproducible.
package netgen

import (
	"math"
	"sort"

	"forwarddecay/internal/core"
)

// Protocol numbers used in generated packets.
const (
	ProtoTCP = 6
	ProtoUDP = 17
)

// Packet is one synthesized network packet.
type Packet struct {
	// Time is the capture timestamp in seconds.
	Time float64
	// SrcIP and DstIP are IPv4 addresses as big-endian uint32s.
	SrcIP, DstIP uint32
	// SrcPort and DstPort are transport ports.
	SrcPort, DstPort uint16
	// Proto is ProtoTCP or ProtoUDP.
	Proto uint8
	// Len is the packet length in bytes.
	Len uint16
}

// FlowKey returns a 64-bit key identifying the packet's 5-tuple flow.
func (p Packet) FlowKey() uint64 {
	h := uint64(p.SrcIP)<<32 | uint64(p.DstIP)
	h = core.Hash2(h, uint64(p.SrcPort)<<24|uint64(p.DstPort)<<8|uint64(p.Proto))
	return h
}

// DestKey returns a 64-bit key identifying the (DstIP, DstPort) pair — the
// grouping key of the paper's count/sum queries.
func (p Packet) DestKey() uint64 {
	return uint64(p.DstIP)<<16 | uint64(p.DstPort)
}

// Config parameterizes a Generator. The zero value is not useful; use
// DefaultConfig and adjust.
type Config struct {
	// Rate is the mean packet arrival rate in packets per second.
	Rate float64
	// Seed makes generation deterministic.
	Seed uint64
	// Hosts is the number of distinct destination hosts.
	Hosts int
	// ZipfS is the Zipf skew of destination popularity (1.0–1.3 is
	// typical of aggregated internet traffic).
	ZipfS float64
	// PortsPerHost is the number of destination service ports per host.
	PortsPerHost int
	// TCPFraction is the fraction of TCP flows; the rest are UDP.
	TCPFraction float64
	// FlowMeanPackets is the mean number of packets per flow.
	FlowMeanPackets float64
	// ActiveFlows is the size of the concurrent flow pool.
	ActiveFlows int
	// OutOfOrder, if positive, shuffles delivery through a buffer of this
	// size: packets keep their true timestamps but arrive late, exercising
	// the out-of-order handling of §VI-B.
	OutOfOrder int
	// Start is the timestamp of the first packet.
	Start float64
}

// DefaultConfig returns a configuration resembling the paper's monitored
// link at the given packet rate.
func DefaultConfig(rate float64, seed uint64) Config {
	return Config{
		Rate:            rate,
		Seed:            seed,
		Hosts:           20000,
		ZipfS:           1.1,
		PortsPerHost:    4,
		TCPFraction:     0.85,
		FlowMeanPackets: 12,
		ActiveFlows:     4096,
	}
}

// flow is one active 5-tuple.
type flow struct {
	src, dst     uint32
	sport, dport uint16
	proto        uint8
}

// Generator produces an endless packet stream. It is not safe for
// concurrent use.
type Generator struct {
	cfg   Config
	rng   *core.RNG
	cdf   []float64 // Zipf CDF over hosts
	flows []flow
	now   float64
	n     uint64
	buf   []Packet // out-of-order shuffle buffer
}

// New returns a generator for the given configuration. It panics on
// non-positive Rate, Hosts, PortsPerHost, FlowMeanPackets or ActiveFlows.
func New(cfg Config) *Generator {
	if cfg.Rate <= 0 || cfg.Hosts <= 0 || cfg.PortsPerHost <= 0 ||
		cfg.FlowMeanPackets <= 0 || cfg.ActiveFlows <= 0 {
		panic("netgen: invalid configuration")
	}
	g := &Generator{cfg: cfg, rng: core.NewRNG(cfg.Seed), now: cfg.Start}
	g.cdf = zipfCDF(cfg.Hosts, cfg.ZipfS)
	g.flows = make([]flow, cfg.ActiveFlows)
	for i := range g.flows {
		g.flows[i] = g.newFlow()
	}
	return g
}

// zipfCDF precomputes the cumulative Zipf(s) distribution over n ranks.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	var z float64
	for i := 1; i <= n; i++ {
		z += math.Pow(float64(i), -s)
		cdf[i-1] = z
	}
	for i := range cdf {
		cdf[i] /= z
	}
	return cdf
}

// newFlow draws a fresh flow: destination host by Zipf rank, service port,
// protocol, and a random client source.
func (g *Generator) newFlow() flow {
	rank := sort.SearchFloat64s(g.cdf, g.rng.Float64())
	dst := 0x0a000000 | uint32(rank) // 10.x.x.x server space
	proto := uint8(ProtoUDP)
	if g.rng.Float64() < g.cfg.TCPFraction {
		proto = ProtoTCP
	}
	dport := wellKnownPort(g.rng, rank, g.cfg.PortsPerHost, proto)
	return flow{
		src:   0xc0a80000 | uint32(g.rng.Uint64()&0xffff), // 192.168.x.x clients
		dst:   dst,
		sport: uint16(1024 + g.rng.Intn(64000)),
		dport: dport,
		proto: proto,
	}
}

// wellKnownPort picks one of the host's service ports, biased toward the
// first (primary) service.
func wellKnownPort(rng *core.RNG, rank, perHost int, proto uint8) uint16 {
	base := uint16(80)
	if proto == ProtoUDP {
		base = 53
	}
	if rng.Float64() < 0.7 {
		return base
	}
	return base + uint16(1+rng.Intn(perHost))
}

// next produces the next in-timestamp-order packet.
func (g *Generator) next() Packet {
	g.now += g.rng.ExpFloat64() / g.cfg.Rate
	g.n++
	// Flow churn: a packet belongs to a new flow with probability
	// 1/FlowMeanPackets, replacing a random pool slot.
	i := g.rng.Intn(len(g.flows))
	if g.rng.Float64() < 1/g.cfg.FlowMeanPackets {
		g.flows[i] = g.newFlow()
	}
	f := &g.flows[i]
	return Packet{
		Time:    g.now,
		SrcIP:   f.src,
		DstIP:   f.dst,
		SrcPort: f.sport,
		DstPort: f.dport,
		Proto:   f.proto,
		Len:     g.pktLen(f.proto),
	}
}

// pktLen draws a packet length: the classic bimodal internet mix of small
// control packets and near-MTU data packets (UDP skews small).
func (g *Generator) pktLen(proto uint8) uint16 {
	u := g.rng.Float64()
	switch {
	case proto == ProtoUDP:
		if u < 0.8 {
			return uint16(64 + g.rng.Intn(450))
		}
		return uint16(512 + g.rng.Intn(988))
	case u < 0.45:
		return uint16(40 + g.rng.Intn(60)) // ACKs and control
	case u < 0.6:
		return uint16(100 + g.rng.Intn(500))
	default:
		return uint16(1000 + g.rng.Intn(500)) // bulk data
	}
}

// Next returns the next packet. With OutOfOrder > 0, packets pass through a
// shuffle buffer: timestamps remain the true capture times but delivery
// order is locally permuted.
func (g *Generator) Next() Packet {
	if g.cfg.OutOfOrder <= 0 {
		return g.next()
	}
	for len(g.buf) < g.cfg.OutOfOrder {
		g.buf = append(g.buf, g.next())
	}
	i := g.rng.Intn(len(g.buf))
	p := g.buf[i]
	g.buf[i] = g.next()
	return p
}

// Take appends the next n packets to dst and returns it.
func (g *Generator) Take(dst []Packet, n int) []Packet {
	for i := 0; i < n; i++ {
		dst = append(dst, g.Next())
	}
	return dst
}

// N returns the number of packets generated so far.
func (g *Generator) N() uint64 { return g.n }

// Now returns the timestamp of the most recently generated packet.
func (g *Generator) Now() float64 { return g.now }
