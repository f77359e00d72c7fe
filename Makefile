# Developer entry points. `make check` is the tier-1 gate; `make
# bench-smoke` executes every benchmark once so the bench harness cannot
# silently rot, and asserts the allocation budgets written into the
# benchmarks themselves; `make staticcheck` runs the pinned lint gate.
# Time is judged by the repo benchmark (bench/README.md), not here.

GO ?= go
STATICCHECK_VERSION ?= 2025.1

.PHONY: check vet build test validate fuzz fuzz-wire fuzz-number fuzz-batch fuzz-job fuzz-tree fuzz-config fuzz-envelope fuzz-pipeline fuzz-manifest bench-smoke bench staticcheck

check: vet build test

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Translation validation (docs/validation.md): the differential harness
# across every model family, the interpreter + divergence-corpus
# regression suite, and the product-surface validation tests (validate
# stage, rollout gate, CLI -validate, HTTP wire).
validate:
	$(GO) test -count=1 ./internal/validate/
	$(GO) test -count=1 -run 'Valid|RolloutGate' . ./cmd/homunculus/ ./internal/httpapi/

# Budgeted EMI fuzz sweep (the nightly CI job). FUZZ_BUDGET caps the
# wall clock; FUZZ_SEED varies the model stream; divergence repros land
# in fuzz-repros/ (override with FUZZ_REPRO_DIR), one JSON per finding,
# replayable with `homunculus -validate -repro <file>`.
FUZZ_BUDGET ?= 300s
FUZZ_SEED ?=
fuzz:
	FUZZ_BUDGET=$(FUZZ_BUDGET) FUZZ_SEED=$(FUZZ_SEED) FUZZ_REPRO_DIR=$(CURDIR)/fuzz-repros \
	    $(GO) test -count=1 -run TestFuzzNightly -v ./internal/validate/

# Native fuzzing of the classify wire codec (the second nightly CI step,
# with a 10 s smoke in ci.yml): FuzzClassifyDecode differentially checks
# the single-pass decoder against encoding/json on arbitrary bytes. The
# target drives the real handler, whose ring worker makes coverage vary
# from run to run; minimization is capped in executions so that a flaky
# "interesting" input cannot eat the budget.
fuzz-wire:
	$(GO) test -run='^$$' -fuzz=FuzzClassifyDecode -fuzztime=$(FUZZ_BUDGET) -fuzzminimizetime=200x ./internal/httpapi/

# Native fuzzing of the number decoder, internal/jsonscan's Parse (the
# sixth nightly CI step, with a 10 s smoke in ci.yml). The target lives
# beside the classify codec's tests: FuzzParseNumber spells a fuzzed
# mantissa, decimal exponent and layout — and the decimals around the
# midpoint above the float64 they denote — and requires
# strconv.ParseFloat's refusal or bits of every spelling.
fuzz-number:
	$(GO) test -run='^$$' -fuzz=FuzzParseNumber -fuzztime=$(FUZZ_BUDGET) ./internal/httpapi/

# Native fuzzing of the batch kernel (the third nightly CI step, with a
# 10 s smoke in ci.yml): FuzzPredictorBatch differentially checks
# Predictor.ClassifyBatch against Model.InferQ, row by row, on fuzzed
# models of all four families and fuzzed feature bit patterns.
fuzz-batch:
	$(GO) test -run='^$$' -fuzz=FuzzPredictorBatch -fuzztime=$(FUZZ_BUDGET) ./internal/ir/

# Native fuzzing of the wire-job decoder (the fourth nightly CI step, with
# a 10 s smoke in ci.yml): FuzzWireJobDecode feeds hostile spec/search
# documents to the one decoder behind journal recovery, SubmitWire and
# ClaimForSteal; whatever it accepts must re-encode to the same spec hash.
fuzz-job:
	$(GO) test -run='^$$' -fuzz=FuzzWireJobDecode -fuzztime=$(FUZZ_BUDGET) .

# Native fuzzing of the presorted CART (the fifth nightly CI step, with a
# 10 s smoke in ci.yml): FuzzDTreePresorted grows a tree from fuzzed
# feature bit patterns, labels and hyperparameters and requires the tree
# the per-node-sorting reference implementation fits, node for node.
fuzz-tree:
	$(GO) test -run='^$$' -fuzz=FuzzDTreePresorted -fuzztime=$(FUZZ_BUDGET) ./internal/dtree/

# Native fuzzing of the serving-config decoder (the seventh nightly CI
# step, with a 10 s smoke in ci.yml): FuzzServingConfig feeds arbitrary
# bytes to ParseServingConfig; an accepted document must render
# canonically to a fixed point, resolve idempotently without changing
# its flush policy, and inherit over any other accepted document into a
# valid one. Minimization is capped in executions: an interesting input
# is often a long run of junk key bytes, and minimizing it uncapped
# spends most of a short budget.
fuzz-config:
	$(GO) test -run='^$$' -fuzz=FuzzServingConfig -fuzztime=$(FUZZ_BUDGET) -fuzzminimizetime=200x .

# Native fuzzing of the artifact envelope reader (the eighth nightly CI
# step, with a 10 s smoke in ci.yml): FuzzVerifyEnvelope holds the
# frame-and-digest reader to the encoding/json reader it replaced, kept
# in the test file as the oracle.
fuzz-envelope:
	$(GO) test -run='^$$' -fuzz=FuzzVerifyEnvelope -fuzztime=$(FUZZ_BUDGET) ./internal/store/

# Native fuzzing of the artifact decoder (the ninth nightly CI step, with
# a 10 s smoke in ci.yml): FuzzUnmarshalPipeline holds the one-pass
# pipeline-and-model decoder to the two-decoder one it replaced — never
# accepting what that refuses, encoding the same bytes when both accept.
# Minimization is capped in executions: the seeds are whole artifacts.
fuzz-pipeline:
	$(GO) test -run='^$$' -fuzz=FuzzUnmarshalPipeline -fuzztime=$(FUZZ_BUDGET) -fuzzminimizetime=200x .

# Native fuzzing of the endpoint-manifest restore path (the tenth nightly
# CI step, with a 10 s smoke in ci.yml): FuzzRestoreManifest writes the
# fuzzed bytes as endpoints.json in a fresh state directory and opens a
# service on it; every record must be restored or skipped with a store
# error, and every restored serving document must re-parse to itself.
# Minimization is capped in executions: the seeds are whole manifests
# and each execution opens a service.
fuzz-manifest:
	$(GO) test -run='^$$' -fuzz=FuzzRestoreManifest -fuzztime=$(FUZZ_BUDGET) -fuzzminimizetime=100x .

# One iteration of every benchmark, no unit tests: catches bit-rotted
# benchmark code and asserts the allocation budgets and the autopilot
# gate, each written as a b.Fatalf inside its benchmark at a fixed
# iteration count of its own.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' . ./internal/cluster/ ./internal/experiments/ ./internal/httpapi/

# Full benchmark pass with allocation reporting (slow).
bench:
	$(GO) test -bench=. -benchmem -run='^$$' . ./internal/cluster/ ./internal/experiments/ ./internal/httpapi/

# Pinned staticcheck (the CI lint gate); requires network on first run
# to install the tool.
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...
