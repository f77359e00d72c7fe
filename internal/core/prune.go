package core

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/svm"
)

// PruneResult reports the outcome of the feature-pruning loop.
type PruneResult struct {
	// Kept lists the surviving feature indices of the original dataset,
	// in importance order.
	Kept []int
	// Dropped lists the pruned features, least important first.
	Dropped []int
	// Model is the final (fitting) model, nil if even one feature does
	// not fit.
	Model *ir.Model
	// Metric is the model's quantized test score.
	Metric float64
	// Verdict is the backend report for the final model.
	Verdict Verdict
}

// PruneSVMToFit implements the §4 loop: "IIsy shows that an implementation
// of an SVM may use a MAT per feature. If the number of MATs is
// insufficient, Homunculus will try to remove less impactful features
// until the SVM model fits." Features are ranked by class-separation
// F-score on the training set (RankFeatures); the least impactful feature
// is dropped and the SVM retrained until the target accepts the mapping or
// no features remain.
func PruneSVMToFit(app App, target Target, cfg SearchConfig, svmCfg svm.Config) (*PruneResult, error) {
	if err := app.Validate(); err != nil {
		return nil, err
	}
	if target == nil {
		return nil, fmt.Errorf("core: nil target")
	}
	if !target.Supports(ir.SVM) {
		return nil, fmt.Errorf("core: target %s does not support SVMs", target.Name())
	}

	data := prepare(app)
	train, test := data.train, data.test

	ranked := RankFeatures(train) // most important first
	res := &PruneResult{}
	for keep := len(ranked); keep >= 1; keep-- {
		cols := append([]int{}, ranked[:keep]...)
		subTrain, err := train.SelectFeatures(cols)
		if err != nil {
			return nil, err
		}
		subTest, err := test.SelectFeatures(cols)
		if err != nil {
			return nil, err
		}
		sc := svmCfg
		sc.Features = keep
		model, err := svm.Train(sc, subTrain)
		if err != nil {
			return nil, fmt.Errorf("core: pruning retrain with %d features: %w", keep, err)
		}
		m := ir.FromSVM(app.Name, model, cfg.Format)
		m.FeatureNames = subTrain.FeatureNames
		verdict, err := target.Estimate(m)
		if err != nil {
			return nil, err
		}
		if !verdict.Feasible {
			res.Dropped = append(res.Dropped, ranked[keep-1])
			continue
		}
		metric, err := scoreModel(m, subTest, cfg.Metric)
		if err != nil {
			return nil, err
		}
		res.Kept = cols
		res.Model = m
		res.Metric = metric
		res.Verdict = verdict
		return res, nil
	}
	return res, nil // Model == nil: nothing fits
}
