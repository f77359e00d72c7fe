package packet

import (
	"testing"
	"testing/quick"
	"time"
)

func TestKeyCanonical(t *testing.T) {
	p1 := Packet{SrcIP: 10, DstIP: 20}
	p2 := Packet{SrcIP: 20, DstIP: 10}
	if p1.Key() != p2.Key() {
		t.Fatal("both directions must share a conversation key")
	}
	if p1.Key().A != 10 || p1.Key().B != 20 {
		t.Fatal("key must be (low, high)")
	}
	if p1.Key().String() == "" {
		t.Fatal("String must render")
	}
}

func TestHistConfigValidate(t *testing.T) {
	if err := PaperBD.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := HistConfig{PLBins: 0, PLBinSize: 1, IPTBins: 1, IPTBinSize: 1}
	if bad.Validate() == nil {
		t.Fatal("zero bins must fail")
	}
	bad2 := HistConfig{PLBins: 1, PLBinSize: 0, IPTBins: 1, IPTBinSize: 1}
	if bad2.Validate() == nil {
		t.Fatal("zero bin size must fail")
	}
}

func TestPaperBDLayout(t *testing.T) {
	if PaperBD.Features() != 30 {
		t.Fatalf("paper flowmarker must have 30 features, got %d", PaperBD.Features())
	}
	names := PaperBD.FeatureNames()
	if len(names) != 30 || names[0] != "pl_bin_0" || names[23] != "ipt_bin_0" {
		t.Fatalf("feature names wrong: %v", names[:3])
	}
}

func TestBinning(t *testing.T) {
	c := PaperBD
	if c.PLBin(0) != 0 || c.PLBin(63) != 0 || c.PLBin(64) != 1 {
		t.Fatal("PL bin edges wrong")
	}
	if c.PLBin(1e9) != c.PLBins-1 {
		t.Fatal("PL bin must clamp high")
	}
	if c.PLBin(-5) != 0 {
		t.Fatal("PL bin must clamp low")
	}
	if c.IPTBin(0) != 0 || c.IPTBin(511*time.Second) != 0 || c.IPTBin(512*time.Second) != 1 {
		t.Fatal("IPT bin edges wrong")
	}
	if c.IPTBin(-time.Second) != 0 {
		t.Fatal("negative gap must clamp to 0")
	}
	if c.IPTBin(1e6*time.Second) != c.IPTBins-1 {
		t.Fatal("IPT bin must clamp high")
	}
}

func TestFlowStateUpdate(t *testing.T) {
	c := PaperBD
	s := NewFlowState(c, FlowKey{1, 2})
	s.Update(c, Packet{Timestamp: 0, Length: 100, Label: 1})
	s.Update(c, Packet{Timestamp: 600 * time.Second, Length: 1000, Label: 1})
	if s.Packets != 2 {
		t.Fatalf("Packets = %d", s.Packets)
	}
	if s.PL[c.PLBin(100)] != 1 || s.PL[c.PLBin(1000)] != 1 {
		t.Fatal("PL histogram wrong")
	}
	// one gap of 600s -> bin 1
	if s.IPT[1] != 1 {
		t.Fatalf("IPT histogram wrong: %v", s.IPT)
	}
	if s.Duration() != 600*time.Second {
		t.Fatalf("Duration = %v", s.Duration())
	}
	if s.Label != 1 {
		t.Fatal("Label must propagate")
	}
	feat := s.Features()
	if len(feat) != 30 {
		t.Fatalf("Features len = %d", len(feat))
	}
}

func TestFlowTable(t *testing.T) {
	tab := NewFlowTable(PaperBD)
	tab.Observe(Packet{SrcIP: 1, DstIP: 2, Length: 64})
	tab.Observe(Packet{SrcIP: 2, DstIP: 1, Length: 64, Timestamp: time.Second})
	tab.Observe(Packet{SrcIP: 3, DstIP: 4, Length: 64})
	if tab.Len() != 2 {
		t.Fatalf("Len = %d, want 2 conversations", tab.Len())
	}
	s := tab.Flows[FlowKey{1, 2}]
	if s == nil || s.Packets != 2 {
		t.Fatal("bidirectional packets must merge")
	}
}

// Property: total histogram mass equals packets observed (PL) and
// packets-1 (IPT) for a single flow.
func TestHistogramMassQuick(t *testing.T) {
	c := PaperBD
	f := func(lengths []uint16) bool {
		if len(lengths) == 0 {
			return true
		}
		s := NewFlowState(c, FlowKey{1, 2})
		for i, l := range lengths {
			s.Update(c, Packet{
				Timestamp: time.Duration(i) * time.Second,
				Length:    int(l),
			})
		}
		var pl, ipt float64
		for _, v := range s.PL {
			pl += v
		}
		for _, v := range s.IPT {
			ipt += v
		}
		return pl == float64(len(lengths)) && ipt == float64(len(lengths)-1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFlowCapacity(t *testing.T) {
	// The §5.1.2 arithmetic: shrinking the flowmarker from 151 to 30 bins
	// grows flow capacity ~5×.
	flowlens := HistConfig{PLBins: 94, PLBinSize: 64, IPTBins: 57, IPTBinSize: 512 * time.Second}
	budget := 1 << 20 // 1M counter words
	big := FlowCapacity(budget, flowlens)
	small := FlowCapacity(budget, PaperBD)
	if big <= 0 || small <= 0 {
		t.Fatal("capacities must be positive")
	}
	ratio := float64(small) / float64(big)
	if ratio < 4.8 || ratio > 5.3 {
		t.Fatalf("30-bin layout should hold ~5x the flows of 151-bin: ratio %v", ratio)
	}
	if FlowCapacity(10, HistConfig{}) != 0 {
		t.Fatal("degenerate layout capacity must be 0")
	}
}
