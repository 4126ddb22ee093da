package distrib

// Per-partition aggregate state and the versioned "state slice" envelope it
// ships in. A slice is the unit of every state movement in the elastic
// cluster — snapshot answers, handoff transfers, checkpoint entries — and
// carries the partition id, the write-ahead-log sequence watermark the
// state covers, and a trailing integrity hash, mirroring the checkpoint-v2
// discipline of the gsql runtimes: state is verified before it is trusted,
// and a slice stamped with another landmark is refused instead of being
// blended across frames.

import (
	"errors"
	"math"

	"forwarddecay/agg"
	"forwarddecay/internal/codec"
)

// sliceVersion stamps the state-slice envelope format.
const sliceVersion = 2

// partState is one partition's aggregates on a site (or in a rebuild).
type partState struct {
	sum *agg.Sum
	hh  *agg.HeavyHitters
	qd  *agg.Quantiles
	// lastSeq is the highest WAL sequence applied to this state; 0 until a
	// ring-routed observation lands.
	lastSeq uint64
}

// newPartState allocates empty aggregates for one partition.
func (c *Cluster) newPartState() *partState {
	m := c.cfg.Model
	ps := &partState{sum: agg.NewSum(m)}
	if c.cfg.HHK > 0 {
		ps.hh = agg.NewHeavyHittersK(m, c.cfg.HHK)
	}
	if c.cfg.QuantileU > 0 {
		ps.qd = agg.NewQuantiles(m, c.cfg.QuantileU, c.cfg.QuantileEps)
	}
	return ps
}

// observe applies one observation. seq 0 marks a non-logged (explicitly
// routed) observation; logged observations at or below the applied
// watermark are duplicates and are dropped.
func (ps *partState) observe(ob Observation, seq uint64) bool {
	if seq != 0 {
		if seq <= ps.lastSeq {
			return false
		}
		ps.lastSeq = seq
	}
	ps.sum.Observe(ob.Time, ob.Value)
	if ps.hh != nil {
		ps.hh.Observe(ob.Key, ob.Time)
	}
	if ps.qd != nil {
		v := uint64(0)
		if ob.Value > 0 {
			v = uint64(ob.Value)
		}
		ps.qd.Observe(v, ob.Time)
	}
	return true
}

// merge folds another partition state (same partition, same frame) in.
func (ps *partState) merge(o *partState) error {
	if err := ps.sum.Merge(o.sum); err != nil {
		return err
	}
	if ps.hh != nil && o.hh != nil {
		if err := ps.hh.Merge(o.hh); err != nil {
			return err
		}
	}
	if ps.qd != nil && o.qd != nil {
		if err := ps.qd.Merge(o.qd); err != nil {
			return err
		}
	}
	if o.lastSeq > ps.lastSeq {
		ps.lastSeq = o.lastSeq
	}
	return nil
}

// encodeSlice seals one partition's state into the versioned envelope:
//
//	u8 version(2) · u32 partition · u64 lastSeq · f64 landmark ·
//	u32 len(sum) · sum · u8 hasHH [· u32 len · hh] · u8 hasQD [· u32 len · qd] ·
//	u64 integrity hash of everything before it
func encodeSlice(part uint32, ps *partState) ([]byte, error) {
	sumB, err := ps.sum.MarshalBinary()
	if err != nil {
		return nil, err
	}
	b := codec.AppendU64(codec.AppendU32([]byte{sliceVersion}, part), ps.lastSeq)
	b = codec.AppendBytes32(codec.AppendF64(b, ps.sum.Model().Landmark), sumB)
	appendOpt := func(blob []byte, err error) error {
		if err != nil {
			return err
		}
		b = codec.AppendBytes32(codec.AppendBool(b, true), blob)
		return nil
	}
	if ps.hh == nil {
		b = codec.AppendBool(b, false)
	} else if err := appendOpt(ps.hh.MarshalBinary()); err != nil {
		return nil, err
	}
	if ps.qd == nil {
		b = codec.AppendBool(b, false)
	} else if err := appendOpt(ps.qd.MarshalBinary()); err != nil {
		return nil, err
	}
	return codec.Seal(b), nil
}

// sliceHeader carries the envelope fields alongside the decoded state.
type sliceHeader struct {
	part     uint32
	lastSeq  uint64
	landmark float64
}

// frameErr refuses a slice stamped with a landmark other than the
// cluster's, with a *LandmarkError.
func (h sliceHeader) frameErr(landmark float64) error {
	if h.landmark == landmark {
		return nil
	}
	return &LandmarkError{Part: h.part, Slice: h.landmark, Cluster: landmark}
}

// decodeSlice verifies and decodes a state slice. The aggregates come back
// under the landmark the slice was cut at (stamped both in the envelope and
// inside every aggregate's own model); callers refuse a slice whose stamp is
// not the cluster's.
func decodeSlice(b []byte) (sliceHeader, *partState, error) {
	payload, ok := codec.Unseal(b)
	if !ok {
		return sliceHeader{}, nil, errors.New("state slice integrity hash mismatch")
	}
	d := codec.NewDec(payload, "state slice")
	if v := d.U8(); v != sliceVersion {
		d.Failf("version %d, want %d", v, sliceVersion)
	}
	hdr := sliceHeader{part: d.U32(), lastSeq: d.U64(), landmark: d.F64()}
	if math.IsNaN(hdr.landmark) || math.IsInf(hdr.landmark, 0) {
		d.Failf("non-finite landmark %v", hdr.landmark)
	}
	ps := &partState{sum: &agg.Sum{}, lastSeq: hdr.lastSeq}
	d.Unmarshal(ps.sum, d.Bytes32())
	if d.Bool() {
		ps.hh = &agg.HeavyHitters{}
		d.Unmarshal(ps.hh, d.Bytes32())
	}
	if d.Bool() {
		ps.qd = &agg.Quantiles{}
		d.Unmarshal(ps.qd, d.Bytes32())
	}
	if err := d.Done(); err != nil {
		return hdr, nil, err
	}
	return hdr, ps, nil
}
