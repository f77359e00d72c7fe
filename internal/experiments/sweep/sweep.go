// Package sweep drives the experiment harness's cross-backend workload
// through one homunculus.Service under contention: admission, caching
// and single-flight under real compilation load, where the table and
// figure experiments give each entry point a fresh service of its own.
// It submits every (application, backend) pair at once against a
// service whose in-flight bound is smaller than the batch, plus
// duplicate submissions that must coalesce onto the cache, and reports
// the per-job outcomes.
package sweep

import (
	"context"
	"fmt"
	"strings"

	"repro/alchemy"
	"repro/internal/backend"
	"repro/internal/experiments"
	"repro/internal/loaders"

	homunculus "repro"
)

// Row is one submitted job's outcome.
type Row struct {
	Job       string
	App       string
	Platform  string
	State     homunculus.JobState
	CacheHit  bool
	Algorithm string
	Metric    float64
	Feasible  bool
	Detail    string
}

// budgetLoaders builds budget-sized dataset loaders for the two fast
// applications (AD on the NSL-KDD substrate, TC on IoT-TC) from the
// canonical generator recipes.
func budgetLoaders(b experiments.Budget) (ad, tc alchemy.DataLoader) {
	return loaders.NSLKDD(b.ADSamples, b.Seed), loaders.IoTTC(b.TCSamples, b.Seed)
}

// Run submits the sweep: every registered backend × {ad, tc}, then a
// duplicate of each first-backend submission to exercise the
// content-addressed cache. MaxInFlight 2 forces queuing (admission under
// load); all jobs are waited to completion.
func Run(b experiments.Budget) ([]Row, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	adLoader, tcLoader := budgetLoaders(b)
	search := b.SearchConfig()

	models := map[string]*alchemy.Model{
		"ad": alchemy.NewModel(alchemy.ModelSpec{
			Name: "anomaly_detection", Algorithms: []string{"dtree"}, DataLoader: adLoader}),
		"tc": alchemy.NewModel(alchemy.ModelSpec{
			Name: "traffic_class", Algorithms: []string{"dtree"}, DataLoader: tcLoader}),
	}

	svc := homunculus.New(homunculus.ServiceOptions{MaxInFlight: 2, QueueDepth: -1, CacheEntries: 32})
	defer svc.Close()

	type submission struct {
		app, kind string
		job       *homunculus.Job
	}
	var subs []submission
	submit := func(app, kind string) error {
		p, err := alchemy.PlatformFor(kind)
		if err != nil {
			return err
		}
		p.Schedule(models[app])
		job, err := svc.Submit(context.Background(), p, homunculus.WithSearchConfig(search))
		if err != nil {
			return fmt.Errorf("sweep: submit %s on %s: %w", app, kind, err)
		}
		subs = append(subs, submission{app: app, kind: kind, job: job})
		return nil
	}
	kinds := backend.Names()
	for _, kind := range kinds {
		for _, app := range []string{"ad", "tc"} {
			if err := submit(app, kind); err != nil {
				return nil, err
			}
		}
	}
	// Duplicate submissions: identical specs must resolve from the cache
	// (or coalesce onto the in-flight compilation) without re-searching.
	for _, app := range []string{"ad", "tc"} {
		if err := submit(app, kinds[0]); err != nil {
			return nil, err
		}
	}

	rows := make([]Row, 0, len(subs))
	for _, s := range subs {
		pipe, err := s.job.Wait(context.Background())
		st := s.job.Status()
		row := Row{
			Job: s.job.ID(), App: s.app, Platform: s.kind,
			State: st.State, CacheHit: st.CacheHit,
		}
		switch {
		case err != nil:
			row.Detail = err.Error()
		case pipe != nil && len(pipe.Apps) > 0 && pipe.Apps[0].Model != nil:
			app := pipe.Apps[0]
			row.Algorithm = app.Algorithm
			row.Metric = app.Metric
			row.Feasible = app.Verdict.Feasible
		default:
			row.Detail = "no feasible model"
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Format renders the rows paper-report style.
func Format(rows []Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %-6s %-8s %-10s %-6s %-9s %-8s %s\n",
		"job", "app", "platform", "state", "cache", "algo", "metric", "detail")
	for _, r := range rows {
		metric := "-"
		if r.Algorithm != "" {
			metric = fmt.Sprintf("%.4f", r.Metric)
		}
		algo := r.Algorithm
		if algo == "" {
			algo = "-"
		}
		fmt.Fprintf(&sb, "%-12s %-6s %-8s %-10s %-6v %-9s %-8s %s\n",
			r.Job, r.App, r.Platform, r.State, r.CacheHit, algo, metric, r.Detail)
	}
	return sb.String()
}
