// Package svm implements a linear support-vector machine trained with the
// Pegasos stochastic sub-gradient algorithm. Together with the HOG features
// of package hog it forms the paper's HOG+SVM pedestrian/vehicle detector
// ([51], [22]).
package svm

import (
	"errors"
	"fmt"
	"math/rand"
)

// Model is a trained linear classifier: Score(x) = w·x + b.
type Model struct {
	W    []float64
	Bias float64
}

// Score returns the signed decision value for feature vector x; positive
// means the positive class. Vectors shorter than W score only their prefix.
func (m *Model) Score(x []float64) float64 {
	n := len(m.W)
	if len(x) < n {
		n = len(x)
	}
	s := m.Bias
	for i := 0; i < n; i++ {
		s += m.W[i] * x[i]
	}
	return s
}

// TrainConfig holds Pegasos hyper-parameters.
type TrainConfig struct {
	Lambda float64 // regularization strength
	Epochs int     // passes over the data
	Seed   int64   // RNG seed for sample order
}

// DefaultTrainConfig works well for the few-hundred-sample HOG problems in
// this repository.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Lambda: 1e-4, Epochs: 60, Seed: 1}
}

// Errors returned by Train.
var (
	ErrNoData    = errors.New("svm: no training data")
	ErrBadLabels = errors.New("svm: labels must be ±1 and both classes present")
)

// Train fits a linear SVM on the given samples with labels in {-1, +1}.
func Train(samples [][]float64, labels []int, cfg TrainConfig) (*Model, error) {
	if len(samples) == 0 || len(samples) != len(labels) {
		return nil, fmt.Errorf("%w: %d samples, %d labels", ErrNoData, len(samples), len(labels))
	}
	dim := len(samples[0])
	pos, neg := 0, 0
	for i, y := range labels {
		if y != 1 && y != -1 {
			return nil, fmt.Errorf("%w: label %d at %d", ErrBadLabels, y, i)
		}
		if len(samples[i]) != dim {
			return nil, fmt.Errorf("svm: sample %d has dim %d, want %d", i, len(samples[i]), dim)
		}
		if y == 1 {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		return nil, fmt.Errorf("%w: %d positive, %d negative", ErrBadLabels, pos, neg)
	}
	if cfg.Lambda <= 0 {
		cfg.Lambda = 1e-3
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 30
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	w := make([]float64, dim)
	var bias float64
	t := 0
	order := rng.Perm(len(samples))
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, idx := range order {
			t++
			// Warm-started Pegasos step size: behaves like 1/(λt)
			// asymptotically but avoids the enormous first steps that
			// destabilize the (unregularized) bias term.
			eta := 1 / (cfg.Lambda*float64(t) + 1)
			x := samples[idx]
			y := float64(labels[idx])
			score := bias
			for i, xi := range x {
				score += w[i] * xi
			}
			// Regularization shrink.
			shrink := 1 - eta*cfg.Lambda
			if shrink < 0 {
				shrink = 0
			}
			for i := range w {
				w[i] *= shrink
			}
			// Hinge sub-gradient step on margin violations.
			if y*score < 1 {
				for i, xi := range x {
					w[i] += eta * y * xi
				}
				bias += eta * y
			}
		}
	}
	return &Model{W: w, Bias: bias}, nil
}
