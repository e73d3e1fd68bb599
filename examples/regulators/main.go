// Regulators: the full privacy stack composed. A consortium of institutions
// trains a risk model under three simultaneous guarantees:
//
//  1. training-process privacy — every iterate crosses the network masked
//     (Section V secure summation over real message-passing nodes);
//  2. statistics privacy — even feature means/variances are fitted through
//     a secure-summation round, never pooled (WithSecureStandardization);
//  3. output privacy — the published model is ε-differentially private by
//     output perturbation, bounding what it reveals about any single record
//     (the randomization technique of the paper's related work, composed
//     with its cryptographic approach instead of replacing it).
//
// The example trains the paper's horizontal linear SVM (HL) and reports the
// cost of each ε on the same data. The release noise is fresh from
// crypto/rand each time, as a real release's must be, so one release says
// little: each ε is released ten times and the accuracy is reported as the
// mean with its range. C stays at 1: the output perturbation's sensitivity
// scales with C, so a small C keeps the noise small.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/signal"

	"github.com/ppml-go/ppml"
)

const learners = 4

func main() {
	// Ctrl-C cancels the root context and training unwinds mid-round.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	data := ppml.SyntheticCancer(500, 3)
	train, test, err := data.Split(0.5)
	if err != nil {
		log.Fatal(err)
	}
	// NOTE: no ppml.Standardize here — the raw partitions are standardized
	// securely inside Train.

	fmt.Printf("%d institutions, %d joint records; nothing pooled, ever\n\n",
		learners, train.Len())

	// Training is deterministic and only the noise is drawn, so without DP
	// every release is the same model.
	const releases = 10
	fmt.Printf("epsilon   accuracy over %d releases: mean (min-max)   (linear SVM, masked aggregation, secure scaling)\n", releases)
	for _, eps := range []float64{0, 100, 10, 1} {
		n, label := releases, fmt.Sprintf("%g", eps)
		if eps == 0 {
			n, label = 1, "off"
		}
		sum, lo, hi := 0.0, 1.0, 0.0
		for range n {
			acc := release(ctx, train, test, eps)
			sum += acc
			lo, hi = min(lo, acc), max(hi, acc)
		}
		fmt.Printf("%-9s %.3f (%.3f-%.3f)\n", label, sum/float64(n), lo, hi)
	}
	fmt.Println("\nsmaller epsilon = stronger guarantee on the released model = lower mean utility")
	fmt.Println("and a wider spread (at epsilon 100 the cost is within the spread);")
	fmt.Println("the training-process protections cost none of it.")
}

// release trains the model with ε-DP output (none at ε = 0) and returns its
// accuracy on test.
func release(ctx context.Context, train, test *ppml.Dataset, eps float64) float64 {
	opts := []ppml.Option{
		ppml.WithLearners(learners),
		ppml.WithC(1), ppml.WithRho(10),
		ppml.WithIterations(30),
		ppml.WithDistributed(),
		ppml.WithSecureStandardization(),
	}
	if eps > 0 {
		opts = append(opts, ppml.WithDPOutput(eps))
	}
	res, err := ppml.TrainContext(ctx, train, ppml.HorizontalLinear, opts...)
	if err != nil {
		log.Fatal(err)
	}
	// The securely fitted scaler standardizes the held-out data.
	scaledTest := cloneForEval(test)
	if err := res.Scaler.Apply(scaledTest); err != nil {
		log.Fatal(err)
	}
	acc, err := ppml.Evaluate(res.Model, scaledTest)
	if err != nil {
		log.Fatal(err)
	}
	return acc
}

// cloneForEval deep-copies a data set so each ε evaluates on pristine
// features.
func cloneForEval(d *ppml.Dataset) *ppml.Dataset {
	rows := make([][]float64, d.Len())
	labels := make([]float64, d.Len())
	for i := 0; i < d.Len(); i++ {
		rows[i] = d.Row(i)
		labels[i] = d.Label(i)
	}
	out, err := ppml.NewDataset(d.Name(), rows, labels)
	if err != nil {
		log.Fatal(err)
	}
	return out
}
