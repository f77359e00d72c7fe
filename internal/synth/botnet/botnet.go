// Package botnet generates synthetic P2P conversation traces shaped like
// the FlowLens botnet-detection corpus the paper's BD application uses:
// benign P2P file-sharing applications (uTorrent, Vuze, eMule, Frostwire)
// versus botnet command-and-control traffic (Storm, Waledac).
//
// Substitution note: the load-bearing property of the real
// traces — quoted directly in §5.1.1 — is that "botnets communicate via
// low-volume and high-duration flows compared to benign P2P applications,
// which makes them identifiable using their packet size and inter-arrival
// time histograms". This generator synthesizes conversations with exactly
// those statistics: botnet C&C sends few, small, regularly-spaced keepalive
// packets over hours, while benign P2P moves many large data packets with
// sub-second gaps. The resulting flowmarker histograms diverge early
// (Figure 6) and support per-packet partial-histogram detection (§5.1.1).
package botnet

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/dataset"
	"repro/internal/packet"
)

// Labels.
const (
	Benign = 0
	Botnet = 1
)

// App identifies the application profile a conversation follows.
type App int

// Application profiles in the corpus.
const (
	UTorrent App = iota
	Vuze
	EMule
	Frostwire
	Storm
	Waledac
	numApps
)

// AppNames for reports.
var AppNames = []string{"uTorrent", "Vuze", "eMule", "Frostwire", "Storm", "Waledac"}

// IsBotnet reports whether the app is a botnet profile.
func (a App) IsBotnet() bool { return a == Storm || a == Waledac }

// String returns the application name.
func (a App) String() string {
	if a < 0 || int(a) >= len(AppNames) {
		return fmt.Sprintf("App(%d)", int(a))
	}
	return AppNames[a]
}

// appProfile parameterizes a conversation generator.
type appProfile struct {
	// packets per conversation: lognormal-ish via mean and jitter
	meanPackets   int
	packetsJitter float64
	// packet-length mixture: (weight, mean bytes, sd bytes) components
	plMix []plComponent
	// inter-arrival time: mean and sd (log-domain spread via multiplier)
	meanIPT time.Duration
	iptSD   float64 // relative sd
}

type plComponent struct {
	weight  float64
	meanLen float64
	sdLen   float64
}

// Profiles calibrated to the published behaviour: benign P2P is
// high-volume (hundreds of packets), mixes small control packets with
// MTU-sized data packets, and has sub-second gaps. Botnet C&C is
// low-volume (tens of packets), small-packet-only, with gaps of minutes
// to tens of minutes (so IPT mass lands in the high 512-s bins).
var profiles = [numApps]appProfile{
	UTorrent: {
		meanPackets:   420,
		packetsJitter: 0.4,
		plMix: []plComponent{
			{0.35, 120, 60},  // control / haves
			{0.15, 500, 180}, // partial blocks
			{0.50, 1420, 90}, // full data packets
		},
		meanIPT: 400 * time.Millisecond,
		iptSD:   1.2,
	},
	Vuze: {
		meanPackets:   380,
		packetsJitter: 0.4,
		plMix: []plComponent{
			{0.30, 140, 70},
			{0.20, 640, 200},
			{0.50, 1380, 110},
		},
		meanIPT: 600 * time.Millisecond,
		iptSD:   1.2,
	},
	EMule: {
		meanPackets:   300,
		packetsJitter: 0.5,
		plMix: []plComponent{
			{0.45, 100, 50},
			{0.20, 420, 150},
			{0.35, 1300, 140},
		},
		meanIPT: 900 * time.Millisecond,
		iptSD:   1.3,
	},
	Frostwire: {
		meanPackets:   340,
		packetsJitter: 0.45,
		plMix: []plComponent{
			{0.40, 130, 60},
			{0.15, 560, 170},
			{0.45, 1400, 100},
		},
		meanIPT: 500 * time.Millisecond,
		iptSD:   1.25,
	},
	Storm: {
		meanPackets:   36,
		packetsJitter: 0.5,
		plMix: []plComponent{
			{0.85, 90, 30},  // UDP keepalives
			{0.15, 260, 80}, // command payloads
		},
		meanIPT: 9 * time.Minute,
		iptSD:   0.8,
	},
	Waledac: {
		meanPackets:   52,
		packetsJitter: 0.5,
		plMix: []plComponent{
			{0.75, 140, 50},
			{0.25, 420, 120},
		},
		meanIPT: 5 * time.Minute,
		iptSD:   0.9,
	},
}

// Flow is one generated conversation.
type Flow struct {
	App     App
	Label   int
	Packets []packet.Packet
}

// Config controls corpus generation.
type Config struct {
	Flows   int     // total conversations
	BotnetP float64 // fraction of botnet conversations
	// LabelNoise flips a conversation's ground-truth label with this
	// probability (mislabeled corpora cap the achievable F1, as in the
	// real PeerRush/FlowLens traces).
	LabelNoise float64
	Seed       int64
}

// DefaultConfig matches the scale used by the experiment harness (the
// paper streams 120M test packets; we default to a corpus whose packet
// count exercises the same code path at laptop scale and scale up in the
// reaction-time experiment).
func DefaultConfig() Config {
	return Config{Flows: 1200, BotnetP: 0.4, LabelNoise: 0.03, Seed: 3}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Flows <= 0 {
		return fmt.Errorf("botnet: Flows must be positive, got %d", c.Flows)
	}
	if c.BotnetP < 0 || c.BotnetP > 1 {
		return fmt.Errorf("botnet: BotnetP must be in [0,1], got %v", c.BotnetP)
	}
	if c.LabelNoise < 0 || c.LabelNoise > 0.5 {
		return fmt.Errorf("botnet: LabelNoise must be in [0,0.5], got %v", c.LabelNoise)
	}
	return nil
}

// Generate produces the conversation corpus described by c.
func Generate(c Config) ([]Flow, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed))
	flows := make([]Flow, c.Flows)
	for i := range flows {
		var app App
		if rng.Float64() < c.BotnetP {
			app = Storm + App(rng.Intn(2))
		} else {
			app = App(rng.Intn(4))
		}
		flows[i] = genFlow(rng, app, uint32(i))
		if rng.Float64() < c.LabelNoise {
			flip := 1 - flows[i].Label
			flows[i].Label = flip
			for j := range flows[i].Packets {
				flows[i].Packets[j].Label = flip
			}
		}
	}
	return flows, nil
}

func genFlow(rng *rand.Rand, app App, id uint32) Flow {
	p := profiles[app]
	// Behavioral modes blur the class boundary (the hard negatives real
	// P2P corpora contain): ~30% of benign conversations are idle seeders
	// — low-volume, minutes-long gaps, control packets only — while ~30%
	// of botnet conversations burst into an active phase with shorter
	// gaps and mid-sized payload packets.
	if app.IsBotnet() {
		if rng.Float64() < 0.30 {
			p.meanPackets *= 3
			p.meanIPT /= 10
			p.plMix = append([]plComponent{{0.30, 620, 180}}, p.plMix...)
			renormalize(p.plMix)
		}
	} else if rng.Float64() < 0.35 {
		// Idle seeders sit statistically next to Waledac keepalives.
		p.meanPackets = 45
		p.meanIPT = 4 * time.Minute
		p.iptSD = 0.9
		p.plMix = []plComponent{{0.80, 120, 45}, {0.20, 380, 110}}
	}
	n := int(float64(p.meanPackets) * (1 + (rng.Float64()*2-1)*p.packetsJitter))
	if n < 4 {
		n = 4
	}
	label := Benign
	if app.IsBotnet() {
		label = Botnet
	}
	// Synthesize a src/dst pair unique to the conversation.
	src := 0x0A000000 + id*2
	dst := 0x0A000000 + id*2 + 1
	f := Flow{App: app, Label: label, Packets: make([]packet.Packet, 0, n)}
	ts := time.Duration(rng.Int63n(int64(time.Minute))) // staggered start
	for i := 0; i < n; i++ {
		length := sampleLen(rng, p.plMix)
		// Alternate direction randomly.
		s, d := src, dst
		if rng.Intn(2) == 1 {
			s, d = dst, src
		}
		proto := packet.ProtoTCP
		if app.IsBotnet() {
			proto = packet.ProtoUDP
		}
		f.Packets = append(f.Packets, packet.Packet{
			Timestamp: ts,
			SrcIP:     s,
			DstIP:     d,
			SrcPort:   uint16(1024 + rng.Intn(60000)),
			DstPort:   uint16(1024 + rng.Intn(60000)),
			Proto:     proto,
			Length:    length,
			Label:     label,
		})
		gap := float64(p.meanIPT) * (1 + rng.NormFloat64()*p.iptSD)
		if gap < float64(time.Millisecond) {
			gap = float64(time.Millisecond)
		}
		ts += time.Duration(gap)
	}
	return f
}

// renormalize rescales mixture weights to sum to 1.
func renormalize(mix []plComponent) {
	var total float64
	for _, c := range mix {
		total += c.weight
	}
	if total <= 0 {
		return
	}
	for i := range mix {
		mix[i].weight /= total
	}
}

func sampleLen(rng *rand.Rand, mix []plComponent) int {
	r := rng.Float64()
	for _, comp := range mix {
		if r < comp.weight {
			l := int(comp.meanLen + rng.NormFloat64()*comp.sdLen)
			if l < 40 {
				l = 40
			}
			if l > 1500 {
				l = 1500
			}
			return l
		}
		r -= comp.weight
	}
	last := mix[len(mix)-1]
	l := int(last.meanLen + rng.NormFloat64()*last.sdLen)
	if l < 40 {
		l = 40
	}
	if l > 1500 {
		l = 1500
	}
	return l
}

// FlowmarkerDataset aggregates each conversation into its full-flow
// flowmarker (the FlowLens training representation): one sample per
// conversation with cfg.Features() histogram features.
func FlowmarkerDataset(flows []Flow, cfg packet.HistConfig) (*dataset.Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := dataset.New(len(flows), cfg.Features())
	d.FeatureNames = cfg.FeatureNames()
	for i, f := range flows {
		state := packet.NewFlowState(cfg, packet.FlowKey{})
		for _, p := range f.Packets {
			state.Update(cfg, p)
		}
		copy(d.X.Row(i), state.Features())
		d.Y[i] = f.Label
	}
	return d, nil
}

// PartialDataset builds per-packet partial-histogram samples: for each
// conversation it emits one sample after every prefixStride packets,
// containing the histogram accumulated so far. This is the per-packet
// inference representation of §5.1.1 — training on full flowmarkers but
// testing on partial ones is exactly the paper's BD protocol.
func PartialDataset(flows []Flow, cfg packet.HistConfig, prefixStride int) (*dataset.Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if prefixStride <= 0 {
		return nil, fmt.Errorf("botnet: prefixStride must be positive, got %d", prefixStride)
	}
	var rows [][]float64
	var labels []int
	for _, f := range flows {
		state := packet.NewFlowState(cfg, packet.FlowKey{})
		for i, p := range f.Packets {
			state.Update(cfg, p)
			if (i+1)%prefixStride == 0 {
				rows = append(rows, state.Features())
				labels = append(labels, f.Label)
			}
		}
	}
	d := dataset.New(len(rows), cfg.Features())
	d.FeatureNames = cfg.FeatureNames()
	for i, r := range rows {
		copy(d.X.Row(i), r)
		d.Y[i] = labels[i]
	}
	return d, nil
}

// Frequencies converts one flowmarker of layout cfg into per-segment
// frequencies in place and returns it: the packet-length and
// inter-arrival histograms are each divided by their own total (an
// all-zero segment stays zero). This is the BD DataLoader's
// preprocessing step (§5.1.2). Frequencies are prefix-robust — a
// conversation's partial histogram converges to the same distribution as
// its full flowmarker — which is what lets a model trained on flow-level
// histograms classify per-packet partial ones.
func Frequencies(x []float64, cfg packet.HistConfig) []float64 {
	for _, seg := range [][]float64{x[:cfg.PLBins], x[cfg.PLBins:]} {
		var sum float64
		for _, v := range seg {
			sum += v
		}
		if sum <= 0 {
			continue
		}
		for j := range seg {
			seg[j] /= sum
		}
	}
	return x
}

// AverageHistograms computes the class-averaged PL and IPT histograms
// across all conversations — the data behind Figure 6. Index 0 of each
// returned pair is the benign average, index 1 the botnet average.
func AverageHistograms(flows []Flow, cfg packet.HistConfig) (pl [2][]float64, ipt [2][]float64, err error) {
	if err := cfg.Validate(); err != nil {
		return pl, ipt, err
	}
	var counts [2]float64
	for k := 0; k < 2; k++ {
		pl[k] = make([]float64, cfg.PLBins)
		ipt[k] = make([]float64, cfg.IPTBins)
	}
	for _, f := range flows {
		state := packet.NewFlowState(cfg, packet.FlowKey{})
		for _, p := range f.Packets {
			state.Update(cfg, p)
		}
		k := f.Label
		for i, v := range state.PL {
			pl[k][i] += v
		}
		for i, v := range state.IPT {
			ipt[k][i] += v
		}
		counts[k]++
	}
	for k := 0; k < 2; k++ {
		if counts[k] == 0 {
			continue
		}
		for i := range pl[k] {
			pl[k][i] /= counts[k]
		}
		for i := range ipt[k] {
			ipt[k][i] /= counts[k]
		}
	}
	return pl, ipt, nil
}

// MergePackets interleaves all conversations into a single time-ordered
// packet stream, the input to the streaming reaction-time harness.
func MergePackets(flows []Flow) []packet.Packet {
	total := 0
	for _, f := range flows {
		total += len(f.Packets)
	}
	out := make([]packet.Packet, 0, total)
	for _, f := range flows {
		out = append(out, f.Packets...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Timestamp < out[j].Timestamp })
	return out
}
