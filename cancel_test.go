package ppml_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"github.com/ppml-go/ppml"
)

// waitForGoroutines retries until the goroutine count returns to (near) the
// baseline; background runtime goroutines make an exact match too strict.
func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d at start, %d still running", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// trainCancel cancels a distributed training run mid-flight and checks that
// TrainContext surfaces context.Canceled promptly with every simulated node
// torn down.
func trainCancel(t *testing.T, extra ...ppml.Option) {
	t.Helper()
	before := runtime.NumGoroutine()
	train, _ := prepared(t, 240)
	opts := append([]ppml.Option{
		ppml.WithLearners(3),
		ppml.WithIterations(100000), // far beyond what runs before the cancel
	}, extra...)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := ppml.TrainContext(ctx, train, ppml.HorizontalLinear, opts...)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
	waitForGoroutines(t, before)
}

func TestTrainContextCancelInProc(t *testing.T) {
	trainCancel(t, ppml.WithDistributed())
}

func TestTrainContextCancelTCP(t *testing.T) {
	trainCancel(t, ppml.WithTCP())
}

func TestTrainContextCancelLocalEngine(t *testing.T) {
	train, _ := prepared(t, 240)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ppml.TrainContext(ctx, train, ppml.HorizontalLinear, ppml.WithIterations(1000))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestTrainMulticlassContextCancel(t *testing.T) {
	data := ppml.SyntheticOCRDigits(120, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ppml.TrainMulticlassContext(ctx, data, ppml.HorizontalLinear, ppml.WithIterations(200))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
