// Securesum: the Section V protocol in isolation, over real loopback TCP
// sockets. Four parties each hold a private vector; the aggregator learns
// the exact sum and provably nothing else — the transcript it sees is
// uniformly random masked shares.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"github.com/ppml-go/ppml/internal/fixedpoint"
	"github.com/ppml-go/ppml/internal/securesum"
	"github.com/ppml-go/ppml/internal/transport"
)

func main() {
	values := [][]float64{
		{120.5, -3.25, 7},   // party 0's private vector
		{-20.0, 14.5, 1},    // party 1
		{300.75, 0, -8},     // party 2
		{-1.25, -11.25, 42}, // party 3
	}
	m, dim := len(values), len(values[0])
	codec := fixedpoint.Default()

	net := transport.NewTCP()
	defer net.Close()

	names := make([]string, m)
	parties := make([]transport.Endpoint, m)
	for i := range names {
		names[i] = fmt.Sprintf("party-%d", i)
		ep, err := net.Endpoint(names[i])
		if err != nil {
			log.Fatal(err)
		}
		parties[i] = ep
	}
	agg, err := net.Endpoint("aggregator")
	if err != nil {
		log.Fatal(err)
	}

	// Ctrl-C cancels the root context and every party unwinds mid-protocol.
	root, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	ctx, cancel := context.WithTimeout(root, 30*time.Second)
	defer cancel()

	// One securesum round of session 1: each party sends a pairwise seed to
	// every peer, then one masked share; round tags let out-of-order
	// arrivals be demultiplexed instead of trusting socket timing.
	hdr := transport.Header{Session: 1, Round: 0}
	errs := make(chan error, m)
	for i := 0; i < m; i++ {
		go func(i int) {
			errs <- securesum.RunParty(ctx, parties[i], names, i, "aggregator", values[i], codec, nil, hdr)
		}(i)
	}
	sum, err := securesum.RunCollector(ctx, agg, m, dim, codec, hdr)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < m; i++ {
		if err := <-errs; err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println("each party's private vector stayed local; over TCP the aggregator received")
	fmt.Println("only masked shares (uniform ring elements) and computed:")
	fmt.Printf("  sum = %v\n", sum)

	expected := make([]float64, dim)
	for _, v := range values {
		for j, x := range v {
			expected[j] += x
		}
	}
	fmt.Printf("  expected   %v\n", expected)

	st := net.Stats()
	fmt.Printf("protocol traffic: %d messages, %d bytes (seeds: %d, shares: %d)\n",
		st.Messages, st.Bytes, m*(m-1), m)
}
