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
// cost of each ε on the same data. C stays at 1: the output perturbation's
// sensitivity scales with C, so a small C keeps the noise small.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/signal"

	"github.com/ppml-go/ppml"
)

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

	const learners = 4
	fmt.Printf("%d institutions, %d joint records; nothing pooled, ever\n\n",
		learners, train.Len())

	fmt.Println("epsilon   accuracy   (linear SVM, masked aggregation, secure scaling)")
	for _, eps := range []float64{0, 100, 10, 1} {
		opts := []ppml.Option{
			ppml.WithLearners(learners),
			ppml.WithC(1), ppml.WithRho(10),
			ppml.WithIterations(30),
			ppml.WithDistributed(),
			ppml.WithSecureStandardization(),
		}
		label := "off"
		if eps > 0 {
			opts = append(opts, ppml.WithDPOutput(eps))
			label = fmt.Sprintf("%g", eps)
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
		fmt.Printf("%-9s %.3f\n", label, acc)
	}
	fmt.Println("\nsmaller epsilon = stronger guarantee on the released model = lower utility;")
	fmt.Println("the training-process protections cost none of it.")
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
