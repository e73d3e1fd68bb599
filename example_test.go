package ppml_test

import (
	"fmt"
	"log"

	"github.com/ppml-go/ppml"
)

// Example reproduces the paper's core workflow: four organizations train a
// joint linear SVM over horizontally partitioned private data.
func Example() {
	data := ppml.SyntheticCancer(400, 1)
	train, test, err := data.Split(0.5)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := ppml.Standardize(train, test); err != nil {
		log.Fatal(err)
	}
	res, err := ppml.Train(train, ppml.HorizontalLinear,
		ppml.WithLearners(4),
		ppml.WithC(50), ppml.WithRho(100),
		ppml.WithIterations(40),
	)
	if err != nil {
		log.Fatal(err)
	}
	acc, err := ppml.Evaluate(res.Model, test)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scheme: %s, learners: %d\n", res.Scheme, res.Learners)
	fmt.Printf("accuracy: %.2f\n", acc)
	// Output:
	// scheme: horizontal-linear, learners: 4
	// accuracy: 0.95
}

// ExampleTrain_vertical shows column-partitioned training: each learner
// holds different attributes of the same records.
func ExampleTrain_vertical() {
	data := ppml.SyntheticHiggs(600, 1)
	train, test, err := data.Split(0.5)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := ppml.Standardize(train, test); err != nil {
		log.Fatal(err)
	}
	res, err := ppml.Train(train, ppml.VerticalLinear,
		ppml.WithLearners(4), ppml.WithIterations(50))
	if err != nil {
		log.Fatal(err)
	}
	acc, err := ppml.Evaluate(res.Model, test)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("converged after %d iterations, accuracy %.1f\n",
		res.History.Iterations, acc)
	// Output:
	// converged after 50 iterations, accuracy 0.7
}

// ExampleTrainCentralized contrasts the no-privacy benchmark the paper
// compares against.
func ExampleTrainCentralized() {
	data := ppml.SyntheticCancer(400, 1)
	train, test, err := data.Split(0.5)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := ppml.Standardize(train, test); err != nil {
		log.Fatal(err)
	}
	res, err := ppml.TrainCentralized(train, ppml.WithC(50))
	if err != nil {
		log.Fatal(err)
	}
	acc, err := ppml.Evaluate(res.Model, test)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("centralized accuracy: %.2f\n", acc)
	// Output:
	// centralized accuracy: 0.95
}
