package botnet

import (
	"math"
	"testing"
	"time"

	"repro/internal/packet"
)

func TestGenerateBasics(t *testing.T) {
	flows, err := Generate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 1200 {
		t.Fatalf("flows = %d", len(flows))
	}
	bot, mismatches := 0, 0
	for _, f := range flows {
		if len(f.Packets) < 4 {
			t.Fatal("every flow needs >= 4 packets")
		}
		if f.Label != Benign && f.Label != Botnet {
			t.Fatal("bad label")
		}
		if f.App.IsBotnet() != (f.Label == Botnet) {
			mismatches++
		}
		if f.Label == Botnet {
			bot++
		}
	}
	frac := float64(bot) / float64(len(flows))
	if math.Abs(frac-0.4) > 0.05 {
		t.Fatalf("botnet fraction %v", frac)
	}
	// Label noise (default 3%) flips a few conversations' ground truth.
	noiseFrac := float64(mismatches) / float64(len(flows))
	if noiseFrac > 0.06 {
		t.Fatalf("label noise %v far above configured 3%%", noiseFrac)
	}
}

func TestValidateConfig(t *testing.T) {
	if _, err := Generate(Config{Flows: 0}); err == nil {
		t.Fatal("zero flows must fail")
	}
	if _, err := Generate(Config{Flows: 10, BotnetP: 2}); err == nil {
		t.Fatal("bad fraction must fail")
	}
}

func TestDeterministic(t *testing.T) {
	a, _ := Generate(DefaultConfig())
	b, _ := Generate(DefaultConfig())
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i].App != b[i].App || len(a[i].Packets) != len(b[i].Packets) {
			t.Fatal("same seed must reproduce")
		}
	}
}

func TestBotnetStatisticsDivergeFromBenign(t *testing.T) {
	// The calibration target from §5.1.1: botnets are LOW-volume and
	// HIGH-duration relative to benign P2P.
	cfg := Config{Flows: 400, BotnetP: 0.5, Seed: 7}
	// (LabelNoise 0 so class statistics are unpolluted.)
	flows, _ := Generate(cfg)
	var pkts, dur [2]float64
	var n [2]float64
	for _, f := range flows {
		k := f.Label
		pkts[k] += float64(len(f.Packets))
		dur[k] += float64(f.Packets[len(f.Packets)-1].Timestamp - f.Packets[0].Timestamp)
		n[k]++
	}
	meanPktsBenign, meanPktsBot := pkts[0]/n[0], pkts[1]/n[1]
	meanDurBenign, meanDurBot := dur[0]/n[0], dur[1]/n[1]
	if meanPktsBot*2 > meanPktsBenign {
		t.Fatalf("botnet volume not low: %v vs %v packets", meanPktsBot, meanPktsBenign)
	}
	if meanDurBot < meanDurBenign*1.5 {
		t.Fatalf("botnet duration not high: %v vs %v", time.Duration(meanDurBot), time.Duration(meanDurBenign))
	}
}

func TestFlowmarkerDataset(t *testing.T) {
	flows, _ := Generate(Config{Flows: 100, BotnetP: 0.5, Seed: 4})
	d, err := FlowmarkerDataset(flows, packet.PaperBD)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 100 || d.Features() != 30 {
		t.Fatalf("shape %dx%d", d.Len(), d.Features())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Histogram mass equals packet count per flow (PL part).
	for i, f := range flows[:5] {
		var mass float64
		for j := 0; j < packet.PaperBD.PLBins; j++ {
			mass += d.X.At(i, j)
		}
		if int(mass) != len(f.Packets) {
			t.Fatalf("flow %d PL mass %v != %d packets", i, mass, len(f.Packets))
		}
	}
	badCfg := packet.HistConfig{}
	if _, err := FlowmarkerDataset(flows, badCfg); err == nil {
		t.Fatal("invalid hist config must fail")
	}
}

func TestPartialDataset(t *testing.T) {
	flows, _ := Generate(Config{Flows: 50, BotnetP: 0.5, Seed: 5})
	d, err := PartialDataset(flows, packet.PaperBD, 10)
	if err != nil {
		t.Fatal(err)
	}
	wantSamples := 0
	for _, f := range flows {
		wantSamples += len(f.Packets) / 10
	}
	if d.Len() != wantSamples {
		t.Fatalf("partial samples %d, want %d", d.Len(), wantSamples)
	}
	if _, err := PartialDataset(flows, packet.PaperBD, 0); err == nil {
		t.Fatal("zero stride must fail")
	}
}

func TestAverageHistogramsShape(t *testing.T) {
	flows, _ := Generate(Config{Flows: 300, BotnetP: 0.5, Seed: 6})
	pl, ipt, err := AverageHistograms(flows, packet.PaperBD)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl[0]) != 23 || len(ipt[0]) != 7 {
		t.Fatal("histogram shapes wrong")
	}
	// Figure 6 property: benign mass extends into large-packet bins;
	// botnet mass concentrates in the small-packet bins.
	benignLargeMass, botLargeMass := 0.0, 0.0
	for i := 15; i < 23; i++ {
		benignLargeMass += pl[0][i]
		botLargeMass += pl[1][i]
	}
	if benignLargeMass <= botLargeMass {
		t.Fatalf("benign large-packet mass (%v) must exceed botnet (%v)", benignLargeMass, botLargeMass)
	}
	// Botnet IPT mass sits in higher bins than benign.
	benignHighIPT, botHighIPT := 0.0, 0.0
	for i := 1; i < 7; i++ {
		benignHighIPT += ipt[0][i]
		botHighIPT += ipt[1][i]
	}
	if botHighIPT <= benignHighIPT {
		t.Fatalf("botnet high-IPT mass (%v) must exceed benign (%v)", botHighIPT, benignHighIPT)
	}
}

func TestMergePacketsOrdered(t *testing.T) {
	flows, _ := Generate(Config{Flows: 30, BotnetP: 0.5, Seed: 8})
	stream := MergePackets(flows)
	total := 0
	for _, f := range flows {
		total += len(f.Packets)
	}
	if len(stream) != total {
		t.Fatalf("merged %d packets, want %d", len(stream), total)
	}
	for i := 1; i < len(stream); i++ {
		if stream[i].Timestamp < stream[i-1].Timestamp {
			t.Fatal("stream must be time-ordered")
		}
	}
}

func TestAppString(t *testing.T) {
	if Storm.String() != "Storm" || UTorrent.String() != "uTorrent" {
		t.Fatal("App names wrong")
	}
	if App(99).String() == "" {
		t.Fatal("out-of-range app must render")
	}
}

func TestFrequencies(t *testing.T) {
	cfg := packet.PaperBD
	x := make([]float64, cfg.Features())
	x[0], x[1] = 1, 3
	x[cfg.PLBins] = 5
	Frequencies(x, cfg)
	if x[0] != 0.25 || x[1] != 0.75 || x[cfg.PLBins] != 1 {
		t.Fatalf("segments not normalized separately: %v", x)
	}
	zero := make([]float64, cfg.Features())
	for _, v := range Frequencies(zero, cfg) {
		if v != 0 {
			t.Fatalf("an empty segment must stay zero: %v", zero)
		}
	}
}
