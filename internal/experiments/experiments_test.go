package experiments

import (
	"testing"
	"time"
)

// The experiment tests run at Quick budget (same code paths as the full
// runs, smaller corpora) and assert the paper's qualitative shapes, not
// absolute numbers.

func TestBudgetValidate(t *testing.T) {
	if err := Full().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Quick().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Quick()
	bad.ADSamples = 1
	if bad.Validate() == nil {
		t.Fatal("tiny budget must fail")
	}
	bad2 := Quick()
	bad2.Epochs = 0
	if bad2.Validate() == nil {
		t.Fatal("zero epochs must fail")
	}
	for _, seed := range []int64{0, -1} {
		bad3 := Quick()
		bad3.Seed = seed
		if bad3.Validate() == nil {
			t.Fatalf("seed %d must fail: the loaders read 0 as the generator default", seed)
		}
	}
}

func TestTable2Shapes(t *testing.T) {
	b := Quick()
	b.Epochs = 10 // enough for the baselines to train at quick scale
	b.BOIters = 6 // enough exploration for the searches to pass baselines
	rows, err := Table2(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Table2Row{}
	for _, r := range rows {
		byName[r.Application] = r
	}
	// Paper baseline architectures and feature counts.
	if byName["Base-AD"].Params != 203 || byName["Base-AD"].Features != 7 {
		t.Fatalf("Base-AD must be the paper's 203-param model: %+v", byName["Base-AD"])
	}
	if byName["Base-TC"].Params != 275 {
		t.Fatalf("Base-TC must be the paper's 275-param model: %+v", byName["Base-TC"])
	}
	if byName["Base-BD"].Params != 662 || byName["Base-BD"].Features != 30 {
		t.Fatalf("Base-BD must be the paper's 662-param model: %+v", byName["Base-BD"])
	}
	// Homunculus must beat each baseline (the headline claim).
	for _, app := range []string{"AD", "TC", "BD"} {
		base, hom := byName["Base-"+app], byName["Hom-"+app]
		if hom.F1 <= base.F1 {
			t.Errorf("%s: Homunculus (%.2f) must beat baseline (%.2f)", app, hom.F1, base.F1)
		}
		if hom.CUs <= 0 || hom.MUs <= 0 {
			t.Errorf("%s: Homunculus row missing resources", app)
		}
	}
	if s := FormatTable2(rows); len(s) == 0 {
		t.Fatal("format must render")
	}
}

func TestTable3StrategyInvariance(t *testing.T) {
	rows, err := Table3(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows[1:] {
		if r.CUs != rows[0].CUs || r.MUs != rows[0].MUs {
			t.Fatalf("resources must be strategy-independent: %+v vs %+v", r, rows[0])
		}
	}
	// Latency: parallel (row 1) < mixed (row 2) < sequential (row 0).
	if !(rows[1].LatencyNS < rows[2].LatencyNS && rows[2].LatencyNS < rows[0].LatencyNS) {
		t.Fatalf("latency ordering wrong: %+v", rows)
	}
	if s := FormatTable3(rows); len(s) == 0 {
		t.Fatal("format must render")
	}
}

func TestTable4FusionCheaperThanSum(t *testing.T) {
	b := Quick()
	b.Epochs = 8
	rows, err := Table4(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	sumCUs := rows[0].PCUs + rows[1].PCUs
	if rows[2].PCUs >= sumCUs {
		t.Fatalf("fused (%d CUs) must undercut sum of parts (%d)", rows[2].PCUs, sumCUs)
	}
	if rows[2].F1 <= 0 {
		t.Fatal("fused model must classify")
	}
	if s := FormatTable4(rows); len(s) == 0 {
		t.Fatal("format must render")
	}
}

func TestTable5OrderingAndLoopback(t *testing.T) {
	b := Quick()
	b.Epochs = 8
	rows, err := Table5(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d (loopback + 6 models)", len(rows))
	}
	loop := rows[0]
	if loop.Application != "Loopback" || loop.LUTPct != 5.36 || loop.PowerW != 15.131 {
		t.Fatalf("loopback row wrong: %+v", loop)
	}
	for _, r := range rows[1:] {
		if r.LUTPct <= loop.LUTPct {
			t.Fatalf("%s must add LUTs over loopback", r.Application)
		}
		if r.BRAMPct != loop.BRAMPct {
			t.Fatalf("%s BRAM must stay at shell allocation (Table 5)", r.Application)
		}
		if r.PowerW <= loop.PowerW {
			t.Fatalf("%s must add power", r.Application)
		}
	}
	if s := FormatTable5(rows); len(s) == 0 {
		t.Fatal("format must render")
	}
}

func TestFigure4Trajectory(t *testing.T) {
	b := Quick()
	b.BOIters = 6
	data, err := Figure4(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Raw) != b.BOInit+b.BOIters || len(data.Best) != len(data.Raw) {
		t.Fatalf("series lengths %d/%d", len(data.Raw), len(data.Best))
	}
	// Running best is monotone non-decreasing once positive.
	for i := 1; i < len(data.Best); i++ {
		if data.Best[i] < data.Best[i-1]-1e-9 && data.Best[i-1] > 0 {
			t.Fatalf("running best decreased at %d: %v", i, data.Best)
		}
	}
	if data.Best[len(data.Best)-1] <= 0 {
		t.Fatal("final best must be positive")
	}
	if s := FormatFigure4(data); len(s) == 0 {
		t.Fatal("format must render")
	}
}

func TestFigure6Divergence(t *testing.T) {
	data, err := Figure6(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(data.BenignPL) != 23 || len(data.BenignIPT) != 7 {
		t.Fatal("paper histogram layout expected")
	}
	// Benign carries large-packet mass; botnet does not.
	var benignLarge, botnetLarge float64
	for i := 16; i < 23; i++ {
		benignLarge += data.BenignPL[i]
		botnetLarge += data.BotnetPL[i]
	}
	if benignLarge <= botnetLarge {
		t.Fatalf("benign large-PL mass (%v) must exceed botnet (%v)", benignLarge, botnetLarge)
	}
	// Botnet carries high-IPT mass.
	var benignHigh, botnetHigh float64
	for i := 1; i < 7; i++ {
		benignHigh += data.BenignIPT[i]
		botnetHigh += data.BotnetIPT[i]
	}
	if botnetHigh <= benignHigh {
		t.Fatalf("botnet high-IPT mass (%v) must exceed benign (%v)", botnetHigh, benignHigh)
	}
	if s := FormatFigure6(data); len(s) == 0 {
		t.Fatal("format must render")
	}
}

func TestFigure7BudgetOrdering(t *testing.T) {
	b := Quick()
	b.BOIters = 5
	series, err := Figure7(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 5 {
		t.Fatalf("series = %d", len(series))
	}
	// Final V-scores must be non-decreasing in the table budget (allowing
	// small search noise: each budget's score must not fall more than 1
	// point below the best seen at a smaller budget).
	bestSoFar := -1.0
	for _, s := range series {
		if len(s.VScore) == 0 {
			t.Fatalf("budget %d produced no model", s.Tables)
		}
		final := s.VScore[len(s.VScore)-1]
		if final < bestSoFar-1.0 {
			t.Fatalf("V-score at %d tables (%v) far below smaller budget (%v)", s.Tables, final, bestSoFar)
		}
		if final > bestSoFar {
			bestSoFar = final
		}
	}
	// 1 table = 1 cluster = V-measure 0 by definition (up to float noise
	// in the entropy terms).
	if series[0].Tables != 1 || series[0].VScore[len(series[0].VScore)-1] > 1e-9 {
		t.Fatalf("single-table budget must score ~0: %+v", series[0])
	}
	if s := FormatFigure7(series); len(s) == 0 {
		t.Fatal("format must render")
	}
}

func TestReactionTimeShapes(t *testing.T) {
	b := Quick()
	b.Epochs = 10
	res, err := ReactionTime(b)
	if err != nil {
		t.Fatal(err)
	}
	// The §5.1.1 claims: per-packet reacts orders of magnitude before the
	// 3,600 s flow-level window, with sub-microsecond decision latency.
	if res.FlowLevelReaction < 3600*time.Second {
		t.Fatalf("flow-level reaction %v must include the window", res.FlowLevelReaction)
	}
	if res.PerPacketReaction >= res.FlowLevelReaction {
		t.Fatalf("per-packet (%v) must beat flow-level (%v)", res.PerPacketReaction, res.FlowLevelReaction)
	}
	if res.InferenceLatencyNS <= 0 || res.InferenceLatencyNS > 500 {
		t.Fatalf("decision latency %v ns outside the Taurus budget", res.InferenceLatencyNS)
	}
	if res.PerPacketF1 <= 0 {
		t.Fatal("per-packet F1 must be positive")
	}
	if res.DetectionRate <= 0.5 {
		t.Fatalf("detection rate %v too low", res.DetectionRate)
	}
	if res.FlowCapacityGain < 4.8 || res.FlowCapacityGain > 5.3 {
		t.Fatalf("flowmarker compression should buy ~5x flows, got %v", res.FlowCapacityGain)
	}
	if s := FormatReaction(res); len(s) == 0 {
		t.Fatal("format must render")
	}
}
