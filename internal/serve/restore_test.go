package serve

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// warmIDs returns the IDs of revisions currently holding a live runtime.
func warmIDs(e *Endpoint) []int {
	var ids []int
	for _, r := range e.RevisionInfos() {
		if r.Warm {
			ids = append(ids, r.ID)
		}
	}
	return ids
}

// promoteN rolls out and promotes n successive constModel revisions.
func promoteN(t *testing.T, ep *Endpoint, from, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := ep.Rollout(constModel(from+i), RolloutConfig{}); err != nil {
			t.Fatalf("rollout %d: %v", from+i, err)
		}
		if err := ep.Promote(); err != nil {
			t.Fatalf("promote %d: %v", from+i, err)
		}
	}
}

func TestEndpointRetentionCap(t *testing.T) {
	ep := mustEndpoint(t, 0, ServingConfig{BatchSize: 4, RetainRetired: 2})
	promoteN(t, ep, 1, 4) // revisions 2..5; 1..4 retired, 5 stable

	// Only the stable and the last two retired revisions stay warm.
	if got := warmIDs(ep); len(got) != 3 || got[0] != 3 || got[1] != 4 || got[2] != 5 {
		t.Fatalf("warm revisions after retention: %v", got)
	}
	for _, r := range ep.Stats().Revisions {
		wantWarm := r.ID >= 3
		if r.Warm != wantWarm {
			t.Fatalf("revision %d warm=%v, want %v", r.ID, r.Warm, wantWarm)
		}
	}

	// Rollback within the cap is instant (runtime still live).
	if err := ep.Rollback(); err != nil {
		t.Fatalf("rollback to 4: %v", err)
	}
	if c, err := ep.Classify([]float64{0, 0}); err != nil || c != 3 {
		t.Fatalf("after rollback to rev 4: class %d err %v", c, err)
	}

	// Walk back past the cap: revisions 2 then 1 were evicted and must
	// be revived from their models.
	for want := 2; want >= 0; want-- {
		if err := ep.Rollback(); err != nil {
			t.Fatalf("rollback to class %d: %v", want, err)
		}
		if c, err := ep.Classify([]float64{0, 0}); err != nil || c != want {
			t.Fatalf("after rollback: class %d err %v, want %d", c, err, want)
		}
	}
	if err := ep.Rollback(); !errors.Is(err, ErrNoRollback) {
		t.Fatalf("rollback past revision 1: %v", err)
	}
}

func TestEndpointRetainAllWhenNegative(t *testing.T) {
	ep := mustEndpoint(t, 0, ServingConfig{BatchSize: 4, RetainRetired: -1})
	promoteN(t, ep, 1, 4)
	if got := warmIDs(ep); len(got) != 5 {
		t.Fatalf("negative cap must keep every revision warm, got %v", got)
	}
}

func TestRestoreEndpointRouting(t *testing.T) {
	ep, err := RestoreEndpoint("restored", ServingConfig{BatchSize: 4, RetainRetired: 1}, []RestoreRevision{
		{ID: 1, Model: constModel(0), State: RevRetired},
		{ID: 2, Model: constModel(1), State: RevRetired},
		{ID: 3, Model: constModel(2), State: RevStable},
		{ID: 4, Model: constModel(3), State: RevCanary, CanaryPercent: 100},
	})
	if err != nil {
		t.Fatalf("RestoreEndpoint: %v", err)
	}
	defer ep.Close()

	if st, ca, pct, sh := ep.View(); st != 3 || ca != 4 || pct != 100 || sh != 0 {
		t.Fatalf("restored view: %d %d %d %d", st, ca, pct, sh)
	}
	// A revision's document is restored as it is: nothing is inherited
	// from the endpoint's (batch 4 stays the endpoint's alone).
	for _, r := range ep.RevisionInfos() {
		if c := r.Config; c.BatchSize != 0 || c.RetainRetired != 0 {
			t.Fatalf("revision %d restored with an inherited document: %+v", r.ID, c)
		}
	}
	// 100% canary: traffic lands on revision 4.
	if c, err := ep.Classify([]float64{0, 0}); err != nil || c != 3 {
		t.Fatalf("restored canary classify: %d %v", c, err)
	}
	// Retention cap 1: retired revision 1 is cold, 2 is warm.
	if got := warmIDs(ep); len(got) != 3 || got[0] != 2 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("restored warmth: %v", got)
	}

	// Lifecycle continues where it left off: promote the canary, then
	// roll back through the restored history, including the cold rev 1.
	if err := ep.Promote(); err != nil {
		t.Fatalf("promote restored canary: %v", err)
	}
	if c, _ := ep.Classify([]float64{0, 0}); c != 3 {
		t.Fatalf("after promote: class %d", c)
	}
	for _, want := range []int{2, 1, 0} {
		if err := ep.Rollback(); err != nil {
			t.Fatalf("rollback to class %d: %v", want, err)
		}
		if c, err := ep.Classify([]float64{0, 0}); err != nil || c != want {
			t.Fatalf("rollback: class %d err %v, want %d", c, err, want)
		}
	}

	// New rollouts number past the restored history.
	rev, err := ep.Rollout(constModel(9), RolloutConfig{})
	if err != nil || rev.ID != 5 {
		t.Fatalf("post-restore rollout: %+v %v", rev, err)
	}
}

func TestRestoreEndpointShadow(t *testing.T) {
	ep, err := RestoreEndpoint("shadowed", ServingConfig{BatchSize: 4}, []RestoreRevision{
		{ID: 1, Model: constModel(0), State: RevStable},
		{ID: 2, Model: constModel(1), State: RevShadow},
	})
	if err != nil {
		t.Fatalf("RestoreEndpoint: %v", err)
	}
	defer ep.Close()
	if st, _, _, sh := ep.View(); st != 1 || sh != 2 {
		t.Fatalf("restored shadow view: %d %d", st, sh)
	}
	// Caller sees the stable answer; the shadow scores off the record.
	if c, err := ep.Classify([]float64{0, 0}); err != nil || c != 0 {
		t.Fatalf("shadowed classify: %d %v", c, err)
	}
	ep.Close()
	if st := ep.Stats(); st.Shadow == nil || st.Shadow.Revision != 2 {
		t.Fatalf("restored shadow divergence: %+v", st.Shadow)
	}
}

func TestRestoreEndpointColdRetiredWithoutModel(t *testing.T) {
	// A retired revision whose artifact did not survive restores cold
	// and is listed, but a rollback that reaches it fails loudly.
	ep, err := RestoreEndpoint("lossy", ServingConfig{BatchSize: 4}, []RestoreRevision{
		{ID: 1, Model: nil, State: RevRetired},
		{ID: 2, Model: constModel(1), State: RevStable},
	})
	if err != nil {
		t.Fatalf("RestoreEndpoint: %v", err)
	}
	defer ep.Close()
	if got := warmIDs(ep); len(got) != 1 || got[0] != 2 {
		t.Fatalf("model-less revision must stay cold: %v", got)
	}
	if err := ep.Rollback(); err == nil || !strings.Contains(err.Error(), "no model") {
		t.Fatalf("rollback onto a model-less revision: %v", err)
	}
}

func TestRestoreEndpointRejectsBadManifests(t *testing.T) {
	o := ServingConfig{BatchSize: 4}
	wide := constModel(1)
	wide.Inputs = 3
	cases := []struct {
		name string
		revs []RestoreRevision
	}{
		{"no revisions", nil},
		{"no stable", []RestoreRevision{{ID: 1, Model: constModel(0), State: RevRetired}}},
		{"two stables", []RestoreRevision{
			{ID: 1, Model: constModel(0), State: RevStable},
			{ID: 2, Model: constModel(1), State: RevStable},
		}},
		{"canary and shadow", []RestoreRevision{
			{ID: 1, Model: constModel(0), State: RevStable},
			{ID: 2, Model: constModel(1), State: RevCanary, CanaryPercent: 10},
			{ID: 3, Model: constModel(2), State: RevShadow},
		}},
		{"duplicate IDs", []RestoreRevision{
			{ID: 1, Model: constModel(0), State: RevStable},
			{ID: 1, Model: constModel(1), State: RevRetired},
		}},
		{"bad canary percent", []RestoreRevision{
			{ID: 1, Model: constModel(0), State: RevStable},
			{ID: 2, Model: constModel(1), State: RevCanary, CanaryPercent: 101},
		}},
		{"stable without model", []RestoreRevision{
			{ID: 1, Model: nil, State: RevStable},
		}},
		{"unknown state", []RestoreRevision{
			{ID: 1, Model: constModel(0), State: RevisionState("zombie")},
		}},
		{"canary of another width", []RestoreRevision{
			{ID: 1, Model: constModel(0), State: RevStable},
			{ID: 2, Model: wide, State: RevCanary, CanaryPercent: 10},
		}},
		{"shadow of another width", []RestoreRevision{
			{ID: 1, Model: constModel(0), State: RevStable},
			{ID: 2, Model: wide, State: RevShadow},
		}},
	}
	for _, tc := range cases {
		if ep, err := RestoreEndpoint("bad", o, tc.revs); err == nil {
			ep.Close()
			t.Fatalf("%s: restore must fail", tc.name)
		}
	}
}

// routing renders what an endpoint's lifecycle exposes: its view and
// every revision's state, traffic share, warmth and place on the
// rollback stack.
func routing(e *Endpoint) string {
	st, ca, pct, sh := e.View()
	out := fmt.Sprintf("view %d/%d@%d%%/%d", st, ca, pct, sh)
	for _, r := range e.RevisionInfos() {
		out += fmt.Sprintf(" | %d %s %d%% warm=%v rollback=%v", r.ID, r.State, r.CanaryPercent, r.Warm, r.Rollback)
	}
	return out
}

// place is a live row's rollback place as RestoreRevision takes it.
func place(p int) int {
	if p == 0 {
		return OffRollbackStack
	}
	return p
}

// TestRestoreMatchesLive rebuilds a live endpoint from its revisions and
// requires the copy to route, keep warm and roll back exactly as the
// original does: the live lifecycle and RestoreEndpoint share one
// install path, one retention rule and one rollback stack. The aborted
// rollouts and the rollback before a new rollout leave retired revisions
// that are not on the stack; a restore that put every retired revision
// on it would roll back onto them.
func TestRestoreMatchesLive(t *testing.T) {
	cfg := ServingConfig{BatchSize: 4, RetainRetired: 1}
	must := func(t *testing.T, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	canary := func(t *testing.T, ep *Endpoint) {
		promoteN(t, ep, 1, 3)
		_, err := ep.Rollout(constModel(4), RolloutConfig{CanaryPercent: 30})
		must(t, err)
	}
	for name, tc := range map[string]struct {
		drive func(*testing.T, *Endpoint)
		// rollbacks is how many Rollbacks succeed before ErrNoRollback.
		rollbacks int
	}{
		"canary": {canary, 4},
		"shadow": {func(t *testing.T, ep *Endpoint) {
			canary(t, ep)
			must(t, ep.Promote())
			_, err := ep.Rollout(constModel(5), RolloutConfig{Shadow: true})
			must(t, err)
		}, 5},
		"aborted canary": {func(t *testing.T, ep *Endpoint) {
			canary(t, ep)
			must(t, ep.Rollback())
		}, 3},
		"aborted shadow": {func(t *testing.T, ep *Endpoint) {
			promoteN(t, ep, 1, 3)
			_, err := ep.Rollout(constModel(4), RolloutConfig{Shadow: true})
			must(t, err)
			must(t, ep.Rollback())
		}, 3},
		"rollback then rollout": {func(t *testing.T, ep *Endpoint) {
			promoteN(t, ep, 1, 3)
			must(t, ep.Rollback())
			_, err := ep.Rollout(constModel(5), RolloutConfig{CanaryPercent: 30})
			must(t, err)
		}, 3},
	} {
		t.Run(name, func(t *testing.T) {
			live := mustEndpoint(t, 0, cfg)
			tc.drive(t, live)
			var revs []RestoreRevision
			for i, r := range live.RevisionInfos() {
				revs = append(revs, RestoreRevision{
					ID: r.ID, Model: live.revs[i].model, Config: r.Config,
					State: r.State, CanaryPercent: r.CanaryPercent, Created: r.Created,
					Rollback: place(r.Rollback),
				})
			}
			restored, err := RestoreEndpoint("ep", cfg, revs)
			if err != nil {
				t.Fatalf("RestoreEndpoint: %v", err)
			}
			defer restored.Close()
			for step := 0; ; step++ {
				if got, want := routing(restored), routing(live); got != want {
					t.Fatalf("after %d rollbacks:\nrestored %s\nlive     %s", step, got, want)
				}
				errLive, errRestored := live.Rollback(), restored.Rollback()
				if !errors.Is(errRestored, errLive) {
					t.Fatalf("rollback %d: restored %v, live %v", step+1, errRestored, errLive)
				}
				if errLive != nil {
					if !errors.Is(errLive, ErrNoRollback) || step != tc.rollbacks {
						t.Fatalf("rollback %d: %v, want ErrNoRollback after %d", step+1, errLive, tc.rollbacks)
					}
					return
				}
			}
		})
	}
}

// TestRestoreRollbackPlacesKeepPushOrder: the rollback stack is ordered
// by place, not by ID. A history recorded before the stack was puts every
// retired revision on it in ID order, newer ones too: restoring stable 1
// with retired 2 on the stack and then promoting revision 3 pushes 1
// above 2, so Rollback returns to 1 first and only then to 2.
func TestRestoreRollbackPlacesKeepPushOrder(t *testing.T) {
	ep, err := RestoreEndpoint("legacy", ServingConfig{BatchSize: 4}, []RestoreRevision{
		{ID: 1, Model: constModel(0), State: RevStable},
		{ID: 2, Model: constModel(1), State: RevRetired, Rollback: 2},
	})
	if err != nil {
		t.Fatalf("RestoreEndpoint: %v", err)
	}
	defer ep.Close()
	promoteN(t, ep, 2, 1)
	for _, want := range []int{1, 2} {
		if err := ep.Rollback(); err != nil {
			t.Fatalf("rollback to %d: %v", want, err)
		}
		if stable, _, _, _ := ep.View(); stable != want {
			t.Fatalf("rollback: stable %d, want %d (%s)", stable, want, routing(ep))
		}
	}
	if err := ep.Rollback(); !errors.Is(err, ErrNoRollback) {
		t.Fatalf("rollback past the stack: %v", err)
	}
}
