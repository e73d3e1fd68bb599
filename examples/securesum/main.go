// Securesum: the Section V protocol in isolation, over real loopback TCP
// sockets. Four parties each hold a private vector; the aggregator learns
// the exact sum and provably nothing else — the transcript it sees is
// uniformly random masked shares.
//
// The round is the one every training job runs (mapreduce.RunDistributed,
// the Reduce step of Fig. 1), here a job of one round: each party is a
// mapper whose contribution is its private vector, and the reducer keeps the
// aggregate it is handed.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"time"

	"github.com/ppml-go/ppml/internal/mapreduce"
	"github.com/ppml-go/ppml/internal/transport"
)

// party contributes its private vector, whatever the broadcast state.
type party []float64

func (p party) Contribution(int, []float64) ([]float64, error) { return p, nil }

// aggregator keeps the round's sum and ends the job.
type aggregator struct{ sum []float64 }

func (a *aggregator) Combine(_ int, sum []float64, _ int) ([]float64, bool, error) {
	a.sum = append(a.sum[:0], sum...)
	return nil, true, nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	values := [][]float64{
		{120.5, -3.25, 7},   // party 0's private vector
		{-20.0, 14.5, 1},    // party 1
		{300.75, 0, -8},     // party 2
		{-1.25, -11.25, 42}, // party 3
	}
	m, dim := len(values), len(values[0])

	net := transport.NewTCP()
	defer net.Close()

	// Ctrl-C cancels the root context and every party unwinds mid-protocol.
	root, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	ctx, cancel := context.WithTimeout(root, 30*time.Second)
	defer cancel()

	// One masked round: each party sends a pairwise seed to every peer, then,
	// on the reducer's broadcast, one masked share; round tags let
	// out-of-order arrivals be demultiplexed instead of trusting socket
	// timing.
	mappers := make([]mapreduce.IterativeMapper, m)
	for i, v := range values {
		mappers[i] = party(v)
	}
	agg := &aggregator{}
	res, err := mapreduce.RunDistributed(ctx, mapreduce.IterativeJob{
		Mappers:         mappers,
		Reducer:         agg,
		ContributionDim: dim,
		MaxIterations:   1,
	}, mapreduce.DriverOptions{Network: net})
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "each party's private vector stayed local; over TCP the aggregator received")
	fmt.Fprintln(w, "only masked shares (uniform ring elements) and computed:")
	fmt.Fprintf(w, "  sum      = %v\n", agg.sum)

	expected := make([]float64, dim)
	for _, v := range values {
		for j, x := range v {
			expected[j] += x
		}
	}
	fmt.Fprintf(w, "  expected   %v\n", expected)

	fmt.Fprintf(w, "protocol traffic: %d messages, %d bytes (seeds: %d; broadcasts, shares and stops: %d each)\n",
		res.Net.Messages, res.Net.Bytes, m*(m-1), m)
	return nil
}
