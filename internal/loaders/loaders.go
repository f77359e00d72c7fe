// Package loaders holds the canonical DataLoader recipes for the
// bundled synthetic dataset generators — the single source the CLI's
// spec format, the HTTP daemon's catalog, the repo benchmark, and the
// feature datasets of internal/experiments build from, so the generator wiring
// (including the botnet corpus's 3/4 flowmarker/partial split and its
// 8-packet window) cannot drift between entry points. The loaders emit
// raw features; preprocessing such as the botnet experiments' frequency
// transform (botnet.Frequencies) wraps a loader rather than forking it.
package loaders

import (
	"repro/alchemy"
	"repro/internal/packet"
	"repro/internal/synth/botnet"
	"repro/internal/synth/iottc"
	"repro/internal/synth/nslkdd"
)

// partialWindow is the packet budget of the botnet test split's partial
// flow-marker features (a flow observed for its first N packets).
const partialWindow = 8

// NSLKDD returns a loader over the bundled NSL-KDD-like generator.
// Zero samples/seed keep the generator defaults.
func NSLKDD(samples int, seed int64) alchemy.DataLoader {
	return alchemy.DataLoaderFunc(func() (*alchemy.Data, error) {
		cfg := nslkdd.DefaultConfig()
		if samples > 0 {
			cfg.Samples = samples
		}
		if seed != 0 {
			cfg.Seed = seed
		}
		train, test, err := nslkdd.TrainTest(cfg)
		if err != nil {
			return nil, err
		}
		return alchemy.FromDatasets(train, test), nil
	})
}

// IoTTC returns a loader over the bundled IoT traffic-classification
// generator. Zero samples/seed keep the generator defaults.
func IoTTC(samples int, seed int64) alchemy.DataLoader {
	return alchemy.DataLoaderFunc(func() (*alchemy.Data, error) {
		cfg := iottc.DefaultConfig()
		if samples > 0 {
			cfg.Samples = samples
		}
		if seed != 0 {
			cfg.Seed = seed
		}
		train, test, err := iottc.TrainTest(cfg)
		if err != nil {
			return nil, err
		}
		return alchemy.FromDatasets(train, test), nil
	})
}

// Botnet returns a loader over the bundled botnet flow corpus: the
// first 3/4 of flows become full flow-marker training features, the
// rest a partial-window test split (the paper's detection setting).
// Zero flows/seed keep the generator defaults.
func Botnet(flows int, seed int64) alchemy.DataLoader {
	return alchemy.DataLoaderFunc(func() (*alchemy.Data, error) {
		cfg := botnet.DefaultConfig()
		if flows > 0 {
			cfg.Flows = flows
		}
		if seed != 0 {
			cfg.Seed = seed
		}
		all, err := botnet.Generate(cfg)
		if err != nil {
			return nil, err
		}
		cut := len(all) * 3 / 4
		train, err := botnet.FlowmarkerDataset(all[:cut], packet.PaperBD)
		if err != nil {
			return nil, err
		}
		test, err := botnet.PartialDataset(all[cut:], packet.PaperBD, partialWindow)
		if err != nil {
			return nil, err
		}
		return alchemy.FromDatasets(train, test), nil
	})
}
