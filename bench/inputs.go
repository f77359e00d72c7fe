package main

// Seeded input generation. Everything the program under test receives —
// dataset sizes and seeds (registered as catalog loaders), job specs and
// their order, feature vectors, request bodies — is a pure function of
// (workload, seed) and is built before any timing starts.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	homunculus "repro"
	"repro/alchemy"
	"repro/internal/httpapi"
	"repro/internal/loaders"
)

// datasetRef names one generated dataset: a bundled generator, its size
// and its seed. For botnet, Samples counts flows.
type datasetRef struct {
	Gen     string `json:"gen"`
	Samples int    `json:"samples"`
	Seed    int64  `json:"seed"`
}

func (d datasetRef) name() string { return fmt.Sprintf("bench-%s-%d-%d", d.Gen, d.Samples, d.Seed) }

func (d datasetRef) loader() alchemy.DataLoader {
	switch d.Gen {
	case "nslkdd":
		return loaders.NSLKDD(d.Samples, d.Seed)
	case "iottc":
		return loaders.IoTTC(d.Samples, d.Seed)
	case "botnet":
		return loaders.Botnet(d.Samples, d.Seed)
	}
	panic("bench: unknown generator " + d.Gen)
}

// register installs the dataset in the loader catalog under its name.
// The name determines the data, so a repeated registration is a no-op.
func (d datasetRef) register() {
	if !alchemy.LoaderRegistered(d.name()) {
		alchemy.RegisterLoader(d.name(), d.loader())
	}
}

// modelDecl is one scheduled model of a job spec.
type modelDecl struct {
	Name       string     `json:"name"`
	Metric     string     `json:"metric"`
	Algorithms []string   `json:"algorithms,omitempty"`
	Data       datasetRef `json:"data"`
}

// jobSpec is one compilation request: a platform kind and one model, or
// two models in a seq schedule. Body is the POST /v1/jobs document.
type jobSpec struct {
	Shape  string      `json:"shape"`
	Kind   string      `json:"kind"`
	Models []modelDecl `json:"models"`
	Body   []byte      `json:"-"`
}

func (j *jobSpec) build() {
	leaf := func(m modelDecl) *alchemy.ScheduleJSON {
		return &alchemy.ScheduleJSON{Model: &alchemy.ModelJSON{
			Name: m.Name, Metric: m.Metric, Algorithms: m.Algorithms, Dataset: m.Data.name(),
		}}
	}
	sched := leaf(j.Models[0])
	if len(j.Models) > 1 {
		sched = &alchemy.ScheduleJSON{Op: "seq"}
		for _, m := range j.Models {
			sched.Children = append(sched.Children, leaf(m))
		}
	}
	body, err := json.Marshal(httpapi.SubmitRequest{
		Platform: &alchemy.PlatformJSON{Kind: j.Kind, Schedule: sched},
		Validate: true,
	})
	if err != nil {
		panic(err) // plain structs of strings and ints
	}
	j.Body = body
}

// submission decodes Body the way the HTTP handler does: the platform
// declaration and the options of a validated submission with the body's
// search budget. In-process submissions (set-up, the traced ledger) use
// it so that they compile exactly what a POST of Body would.
func (j *jobSpec) submission() (*alchemy.Platform, []homunculus.Option, error) {
	var req httpapi.SubmitRequest
	if err := json.Unmarshal(j.Body, &req); err != nil {
		return nil, nil, err
	}
	p, err := alchemy.PlatformFromJSON(req.Platform)
	if err != nil {
		return nil, nil, err
	}
	return p, []homunculus.Option{homunculus.WithSearchConfig(req.Search.Config()), homunculus.WithValidation()}, nil
}

func (j *jobSpec) register() {
	for _, m := range j.Models {
		m.Data.register()
	}
}

var (
	generators = []string{"nslkdd", "iottc", "botnet"}
	targets    = []string{"taurus", "tofino", "fpga"}
)

// flowsPer converts a sample budget to botnet flows (a flow expands to
// many packets, so the same budget buys fewer of them).
const flowsPer = 8

// shapeSpec builds the spec of shape (gen, kind) over a dataset of the
// given size. No algorithms are listed — the paper's default, search
// every family the target supports — and the search budget is the
// default. The taurus×botnet shape schedules two models in sequence so
// the compose stage stays on the path.
func shapeSpec(gen, kind string, samples int, rng *rand.Rand) jobSpec {
	ds := func() datasetRef {
		n := samples
		if gen == "botnet" {
			n = samples / flowsPer
		}
		return datasetRef{Gen: gen, Samples: n, Seed: 1 + rng.Int63n(1<<31)}
	}
	j := jobSpec{Shape: gen + "/" + kind, Kind: kind}
	j.Models = []modelDecl{{Name: gen + "_app", Metric: "f1", Data: ds()}}
	if gen == "botnet" && kind == "taurus" {
		j.Models = append(j.Models, modelDecl{Name: gen + "_app2", Metric: "f1", Data: ds()})
	}
	j.build()
	return j
}

// coldSize is the dataset size of every compile_cold job: a round of the
// nine shapes takes about 1.4 s at the parent commit.
const coldSize = 600

// coldRounds is how many rounds of distinct specs are generated; the
// measured phase ends early if it ever uses them up.
const coldRounds = 48

// genColdRounds returns rounds of the nine shapes, each round in a
// seeded order, every job over a dataset seed of its own — so every job
// is a distinct spec and searches.
func genColdRounds(seed int64, rounds int) [][]jobSpec {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]jobSpec, rounds)
	for r := range out {
		var round []jobSpec
		for _, gen := range generators {
			for _, kind := range targets {
				round = append(round, shapeSpec(gen, kind, coldSize, rng))
			}
		}
		rng.Shuffle(len(round), func(a, b int) { round[a], round[b] = round[b], round[a] })
		out[r] = round
	}
	return out
}

// warmSize is the dataset size of the specs compile_warm compiles in
// set-up. A cache hit costs the same whatever the search cost was, so
// the specs are small to keep set-up short.
const warmSize = 240

// warmOrderLen is the length of the seeded resubmission order, cycled.
const warmOrderLen = 4096

// genWarm returns one spec per shape and the order to resubmit them in.
// The specs' datasets are fixed, like the serve fixtures': what a cache
// hit costs depends on the size of the stored artifact, which depends on
// the model the search picked, so seeded datasets made the workload a
// different one from seed to seed (op_p50_us spread 13% over ten seeds
// against 9% over ten runs of one). The seed draws the order.
func genWarm(seed int64) (specs []jobSpec, order []int) {
	fixed := rand.New(rand.NewSource(7100))
	for _, gen := range generators {
		for _, kind := range targets {
			specs = append(specs, shapeSpec(gen, kind, warmSize, fixed))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	order = make([]int, warmOrderLen)
	for i := range order {
		order[i] = rng.Intn(len(specs))
	}
	return specs, order
}

// fixture is an endpoint model compiled in set-up for the serve
// workloads. Its dataset seed is fixed: the served model is part of the
// system under test, the traffic is the seeded input. (A seeded model
// would change the predictor's size from seed to seed, and with it the
// cost of the very path the workload measures.)
type fixture struct {
	Endpoint string
	Spec     jobSpec
	// Rollout, when set, is a second model rolled out behind the same
	// endpoint as a 50% canary or a shadow.
	Rollout *jobSpec
	Canary  int
	Shadow  bool
	// Supervised marks models whose classes are the dataset's labels, so
	// served accuracy is meaningful (not so for clustering).
	Supervised bool
}

func fixtureSpec(name, gen, kind, algo, metric string, dsSeed int64) jobSpec {
	n := fixtureSize
	if gen == "botnet" {
		n /= flowsPer
	}
	j := jobSpec{Shape: gen + "/" + kind, Kind: kind, Models: []modelDecl{{
		Name: name, Metric: metric, Algorithms: []string{algo},
		Data: datasetRef{Gen: gen, Samples: n, Seed: dsSeed},
	}}}
	j.build()
	return j
}

const fixtureSize = 600

// dnnFixture is the one endpoint of the two HTTP serve workloads.
func dnnFixture() fixture {
	return fixture{Endpoint: "dnn", Spec: fixtureSpec("dnn_app", "nslkdd", "taurus", "dnn", "f1", 7001), Supervised: true}
}

// inprocFixtures are the four endpoints of serve_inproc: one per flat
// predictor layout, two of them mid-rollout.
func inprocFixtures() []fixture {
	canary := fixtureSpec("dtree_app", "iottc", "tofino", "dtree", "f1", 7003)
	shadow := fixtureSpec("svm_app", "botnet", "tofino", "svm", "f1", 7005)
	return []fixture{
		dnnFixture(),
		{Endpoint: "dtree", Spec: fixtureSpec("dtree_app", "iottc", "tofino", "dtree", "f1", 7002), Rollout: &canary, Canary: 50, Supervised: true},
		{Endpoint: "svm", Spec: fixtureSpec("svm_app", "botnet", "tofino", "svm", "f1", 7004), Rollout: &shadow, Shadow: true, Supervised: true},
		{Endpoint: "kmeans", Spec: fixtureSpec("kmeans_app", "nslkdd", "taurus", "kmeans", "vmeasure", 7006)},
	}
}

// traffic is a pool of feature vectors with their ground-truth labels.
type traffic struct {
	X [][]float64
	Y []int
}

// genTraffic draws n vectors for an endpoint. The population is the
// fixture's own dataset grown to twice n samples — a generator's class
// structure depends on its seed, so traffic from another seed would be
// noise to the served model — and -seed picks which n vectors are sent,
// in which order.
func genTraffic(fix datasetRef, n int, seed int64) (traffic, error) {
	fix.Samples = 2 * n
	data, err := fix.loader().Load()
	if err != nil {
		return traffic{}, fmt.Errorf("generate %s traffic: %w", fix.Gen, err)
	}
	xs, ys := append(data.TestX, data.TrainX...), append(data.TestY, data.TrainY...)
	if len(xs) < n {
		return traffic{}, fmt.Errorf("generate %s traffic: %d vectors, want %d", fix.Gen, len(xs), n)
	}
	t := traffic{X: make([][]float64, n), Y: make([]int, n)}
	for i, k := range rand.New(rand.NewSource(seed)).Perm(len(xs))[:n] {
		t.X[i], t.Y[i] = xs[k], ys[k]
	}
	return t, nil
}

// classifyBody renders vectors as a POST .../classify document.
func classifyBody(xs [][]float64) []byte {
	body, err := json.Marshal(httpapi.ClassifyRequest{Features: xs})
	if err != nil {
		panic(err) // finite floats
	}
	return body
}

// inputHasher digests generated inputs for the purity test and the
// result line.
type inputHasher struct{ h [sha256.Size]byte }

func (ih *inputHasher) add(parts ...[]byte) {
	h := sha256.New()
	h.Write(ih.h[:])
	for _, p := range parts {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	copy(ih.h[:], h.Sum(nil))
}

func (ih *inputHasher) addJSON(v any) {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	ih.add(raw)
}

func (ih *inputHasher) addTraffic(t traffic) {
	buf := make([]byte, 0, 8*len(t.X)*(len(t.X[0])+1))
	for i, x := range t.X {
		for _, v := range x {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(t.Y[i]))
	}
	ih.add(buf)
}

func (ih *inputHasher) sum() string { return hex.EncodeToString(ih.h[:8]) }
