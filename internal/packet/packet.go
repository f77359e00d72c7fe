// Package packet models the network traffic that flows through a generated
// data-plane pipeline: packets, flow keys, flow tables, and the
// histogram-based flow state ("flowmarkers", FlowLens terminology) that the
// botnet-detection application aggregates. The streaming harness in
// internal/stream drives these types through compiled models to measure
// per-packet reaction time (§5.1.1).
package packet

import (
	"fmt"
	"time"
)

// Proto is an IP protocol number. Only the values used by the generators
// are named.
type Proto uint8

// Protocol numbers used by the synthetic traffic generators.
const (
	ProtoTCP Proto = 6
	ProtoUDP Proto = 17
)

// Packet is a single parsed packet as seen by the data-plane parser stage:
// only the header fields a switch can extract at line rate.
type Packet struct {
	Timestamp time.Duration // offset from trace start
	SrcIP     uint32
	DstIP     uint32
	SrcPort   uint16
	DstPort   uint16
	Proto     Proto
	Length    int // bytes, including headers
	// Label carries ground truth through the harness (not visible to
	// models): the class of the flow this packet belongs to.
	Label int
}

// FlowKey identifies a conversation. Following the botnet-detection
// literature (PeerRush, FlowLens), the key tracks the host pair only,
// ignoring ports, so all packets between two peers aggregate into one
// conversation. Src/Dst are stored in canonical (low, high) order so both
// directions map to the same key.
type FlowKey struct {
	A, B uint32
}

// Key returns the canonical conversation key for p.
func (p Packet) Key() FlowKey {
	if p.SrcIP <= p.DstIP {
		return FlowKey{A: p.SrcIP, B: p.DstIP}
	}
	return FlowKey{A: p.DstIP, B: p.SrcIP}
}

// String renders the key as "a<->b".
func (k FlowKey) String() string { return fmt.Sprintf("%d<->%d", k.A, k.B) }

// HistConfig describes a flowmarker layout: packet-length bins of PLBinSize
// bytes and inter-arrival-time bins of IPTBinSize. FlowLens used 94+57
// bins; the paper's BD application compresses to 23 PL bins (64 B each)
// and 7 IPT bins (512 s each) for a 30-feature flowmarker.
type HistConfig struct {
	PLBins     int
	PLBinSize  int // bytes per bin
	IPTBins    int
	IPTBinSize time.Duration
}

// PaperBD is the 30-bin flowmarker layout from the evaluation (§5):
// 23 packet-length bins of 64 bytes and 7 inter-arrival bins of 512 s.
var PaperBD = HistConfig{PLBins: 23, PLBinSize: 64, IPTBins: 7, IPTBinSize: 512 * time.Second}

// Features returns the flowmarker feature count (PL + IPT bins).
func (c HistConfig) Features() int { return c.PLBins + c.IPTBins }

// FlowCapacity returns how many conversations a register budget (in
// histogram-counter words) supports under layout c. A switch dedicates a
// fixed register file to per-flow state, which is why the paper's §5.1.2
// notes that shrinking the flowmarker from 151 to 30 bins "increases the
// number of flows we can handle on a switch proportionally".
func FlowCapacity(registerWords int, c HistConfig) int {
	if c.Features() <= 0 {
		return 0
	}
	return registerWords / c.Features()
}

// Validate checks the layout is usable.
func (c HistConfig) Validate() error {
	if c.PLBins <= 0 || c.IPTBins <= 0 {
		return fmt.Errorf("packet: histogram needs positive bin counts, got %d/%d", c.PLBins, c.IPTBins)
	}
	if c.PLBinSize <= 0 || c.IPTBinSize <= 0 {
		return fmt.Errorf("packet: histogram needs positive bin sizes")
	}
	return nil
}

// PLBin returns the packet-length bin index for a packet of length n,
// clamped to the last bin.
func (c HistConfig) PLBin(n int) int {
	b := n / c.PLBinSize
	if b >= c.PLBins {
		b = c.PLBins - 1
	}
	if b < 0 {
		b = 0
	}
	return b
}

// IPTBin returns the inter-arrival-time bin for gap d, clamped.
func (c HistConfig) IPTBin(d time.Duration) int {
	if d < 0 {
		d = 0
	}
	b := int(d / c.IPTBinSize)
	if b >= c.IPTBins {
		b = c.IPTBins - 1
	}
	return b
}

// FlowState is the per-conversation register state a switch would keep:
// the running flowmarker histograms plus bookkeeping for inter-arrival
// computation. It mirrors what FlowLens stores in Tofino registers.
type FlowState struct {
	Key      FlowKey
	PL       []float64 // packet-length histogram counts
	IPT      []float64 // inter-arrival histogram counts
	Packets  int
	LastSeen time.Duration
	First    time.Duration
	Label    int // ground truth of the conversation
}

// NewFlowState allocates zeroed state for key under config c.
func NewFlowState(c HistConfig, key FlowKey) *FlowState {
	return &FlowState{
		Key: key,
		PL:  make([]float64, c.PLBins),
		IPT: make([]float64, c.IPTBins),
	}
}

// Update folds one packet into the flowmarker.
func (s *FlowState) Update(c HistConfig, p Packet) {
	if s.Packets == 0 {
		s.First = p.Timestamp
	} else {
		s.IPT[c.IPTBin(p.Timestamp-s.LastSeen)]++
	}
	s.PL[c.PLBin(p.Length)]++
	s.LastSeen = p.Timestamp
	s.Packets++
	s.Label = p.Label
}

// Features flattens the flowmarker into the model input vector
// (PL bins then IPT bins). The returned slice is freshly allocated.
func (s *FlowState) Features() []float64 {
	out := make([]float64, 0, len(s.PL)+len(s.IPT))
	out = append(out, s.PL...)
	out = append(out, s.IPT...)
	return out
}

// Duration returns the observed conversation duration so far.
func (s *FlowState) Duration() time.Duration {
	return s.LastSeen - s.First
}

// FlowTable maintains per-conversation state, the switch register file the
// BD pipeline indexes by flow key.
type FlowTable struct {
	Config HistConfig
	Flows  map[FlowKey]*FlowState
}

// NewFlowTable returns an empty table with layout c.
func NewFlowTable(c HistConfig) *FlowTable {
	return &FlowTable{Config: c, Flows: make(map[FlowKey]*FlowState)}
}

// Observe folds packet p into its conversation state, creating the state on
// first sight, and returns it (post-update).
func (t *FlowTable) Observe(p Packet) *FlowState {
	key := p.Key()
	s, ok := t.Flows[key]
	if !ok {
		s = NewFlowState(t.Config, key)
		t.Flows[key] = s
	}
	s.Update(t.Config, p)
	return s
}

// Len returns the number of tracked conversations.
func (t *FlowTable) Len() int { return len(t.Flows) }

// FeatureNames returns readable names for the flowmarker features, used by
// code generators and CSV export.
func (c HistConfig) FeatureNames() []string {
	names := make([]string, 0, c.Features())
	for i := 0; i < c.PLBins; i++ {
		names = append(names, fmt.Sprintf("pl_bin_%d", i))
	}
	for i := 0; i < c.IPTBins; i++ {
		names = append(names, fmt.Sprintf("ipt_bin_%d", i))
	}
	return names
}
