package experiments

// One benchmark per table and figure of the evaluation at the Quick
// budget, each reporting its headline quantities as custom metrics
// (`go test -bench=. ./internal/experiments/`).

import (
	"math"
	"testing"
)

// ---- Tables ----

func BenchmarkTable2BaselinesVsHomunculus(b *testing.B) {
	budget := Quick()
	budget.Epochs = 10
	budget.BOIters = 6
	var rows []Table2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = Table2(budget)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.Application {
		case "Base-AD":
			b.ReportMetric(r.F1, "baseAD_F1")
		case "Hom-AD":
			b.ReportMetric(r.F1, "homAD_F1")
		case "Base-BD":
			b.ReportMetric(r.F1, "baseBD_F1")
		case "Hom-BD":
			b.ReportMetric(r.F1, "homBD_F1")
		}
	}
}

func BenchmarkTable3AppChaining(b *testing.B) {
	budget := Quick()
	var rows []Table3Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = Table3(budget)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].CUs), "chain_CUs")
	b.ReportMetric(float64(rows[0].MUs), "chain_MUs")
	spread := float64(rows[0].CUs - rows[1].CUs) // 0 when strategy-independent
	b.ReportMetric(math.Abs(spread), "strategy_CU_spread")
}

func BenchmarkTable4ModelFusion(b *testing.B) {
	budget := Quick()
	budget.Epochs = 8
	var rows []Table4Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = Table4(budget)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].PCUs+rows[1].PCUs), "parts_CUs")
	b.ReportMetric(float64(rows[2].PCUs), "fused_CUs")
}

func BenchmarkTable5FPGAUtilization(b *testing.B) {
	budget := Quick()
	budget.Epochs = 8
	var rows []Table5Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = Table5(budget)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].PowerW, "loopback_W")
	var maxLUT float64
	for _, r := range rows[1:] {
		if r.LUTPct > maxLUT {
			maxLUT = r.LUTPct
		}
	}
	b.ReportMetric(maxLUT, "max_LUT_pct")
}

// ---- Figures ----

func BenchmarkFigure4BORegret(b *testing.B) {
	budget := Quick()
	budget.BOIters = 6
	var data Figure4Data
	for i := 0; i < b.N; i++ {
		var err error
		data, err = Figure4(budget)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(data.Best[len(data.Best)-1], "final_F1")
	b.ReportMetric(data.Best[0], "first_F1")
}

func BenchmarkFigure6Histograms(b *testing.B) {
	budget := Quick()
	var data Figure6Data
	for i := 0; i < b.N; i++ {
		var err error
		data, err = Figure6(budget)
		if err != nil {
			b.Fatal(err)
		}
	}
	var benignLarge, botnetLarge float64
	for i := 16; i < 23; i++ {
		benignLarge += data.BenignPL[i]
		botnetLarge += data.BotnetPL[i]
	}
	b.ReportMetric(benignLarge, "benign_largePL")
	b.ReportMetric(botnetLarge, "botnet_largePL")
}

func BenchmarkFigure7KMeansBudgets(b *testing.B) {
	budget := Quick()
	budget.BOIters = 5
	var series []Figure7Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = Figure7(budget)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range series {
		if len(s.VScore) > 0 && (s.Tables == 1 || s.Tables == 5) {
			name := "V_1table"
			if s.Tables == 5 {
				name = "V_5tables"
			}
			b.ReportMetric(s.VScore[len(s.VScore)-1], name)
		}
	}
}

func BenchmarkReactionTime(b *testing.B) {
	budget := Quick()
	budget.Epochs = 10
	var res ReactionResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = ReactionTime(budget)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MeanDetectionPackets, "detect_pkts")
	b.ReportMetric(res.InferenceLatencyNS, "decision_ns")
	b.ReportMetric(res.FlowLevelReaction.Seconds(), "flowlevel_s")
}
