package svm

import (
	"math/rand"
	"testing"
)

// Predict returns +1 or -1; the training tests judge a model by it.
func (m *Model) Predict(x []float64) int {
	if m.Score(x) >= 0 {
		return 1
	}
	return -1
}

// Accuracy returns the fraction of samples the model labels correctly.
func (m *Model) Accuracy(samples [][]float64, labels []int) float64 {
	if len(samples) == 0 {
		return 0
	}
	correct := 0
	for i, x := range samples {
		if m.Predict(x) == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(samples))
}

// gaussianBlobs makes a linearly separable 2-class dataset.
func gaussianBlobs(rng *rand.Rand, n int, sep float64) (samples [][]float64, labels []int) {
	for i := 0; i < n; i++ {
		y := 1
		cx, cy := sep, sep
		if i%2 == 0 {
			y = -1
			cx, cy = -sep, -sep
		}
		samples = append(samples, []float64{cx + rng.NormFloat64(), cy + rng.NormFloat64()})
		labels = append(labels, y)
	}
	return samples, labels
}

func TestTrainSeparableData(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	samples, labels := gaussianBlobs(rng, 200, 4)
	m, err := Train(samples, labels, DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	if acc := m.Accuracy(samples, labels); acc < 0.97 {
		t.Fatalf("training accuracy = %v, want >= 0.97", acc)
	}
	// Held-out data.
	test, testLabels := gaussianBlobs(rng, 200, 4)
	if acc := m.Accuracy(test, testLabels); acc < 0.95 {
		t.Fatalf("test accuracy = %v, want >= 0.95", acc)
	}
}

func TestTrainOverlappingDataStillLearns(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	samples, labels := gaussianBlobs(rng, 400, 1.2)
	m, err := Train(samples, labels, DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	if acc := m.Accuracy(samples, labels); acc < 0.75 {
		t.Fatalf("accuracy = %v on overlapping blobs, want >= 0.75", acc)
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, nil, DefaultTrainConfig()); err == nil {
		t.Fatal("empty data should fail")
	}
	if _, err := Train([][]float64{{1}}, []int{2}, DefaultTrainConfig()); err == nil {
		t.Fatal("bad label should fail")
	}
	if _, err := Train([][]float64{{1}, {2}}, []int{1, 1}, DefaultTrainConfig()); err == nil {
		t.Fatal("single-class data should fail")
	}
	if _, err := Train([][]float64{{1}, {2, 3}}, []int{1, -1}, DefaultTrainConfig()); err == nil {
		t.Fatal("ragged samples should fail")
	}
	if _, err := Train([][]float64{{1}}, []int{1, -1}, DefaultTrainConfig()); err == nil {
		t.Fatal("length mismatch should fail")
	}
}

func TestTrainDeterministicForSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	samples, labels := gaussianBlobs(rng, 100, 3)
	cfg := DefaultTrainConfig()
	m1, err := Train(samples, labels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(samples, labels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m1.W {
		if m1.W[i] != m2.W[i] {
			t.Fatal("same seed should give identical models")
		}
	}
}

func TestScoreShortVector(t *testing.T) {
	m := &Model{W: []float64{1, 2, 3}, Bias: 0.5}
	// Only the prefix is scored.
	if got := m.Score([]float64{1}); got != 1.5 {
		t.Fatalf("Score = %v, want 1.5", got)
	}
	if got := m.Predict([]float64{-10, 0, 0}); got != -1 {
		t.Fatalf("Predict = %d", got)
	}
}

func TestDefaultsAppliedForZeroConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	samples, labels := gaussianBlobs(rng, 100, 4)
	m, err := Train(samples, labels, TrainConfig{}) // zero-value config
	if err != nil {
		t.Fatal(err)
	}
	if acc := m.Accuracy(samples, labels); acc < 0.9 {
		t.Fatalf("accuracy with defaulted config = %v", acc)
	}
}

func TestAccuracyEmpty(t *testing.T) {
	m := &Model{W: []float64{1}}
	if m.Accuracy(nil, nil) != 0 {
		t.Fatal("accuracy on empty set should be 0")
	}
}
