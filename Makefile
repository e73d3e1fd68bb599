GO ?= go

.PHONY: build test race vet vet-custom vet-flow fuzz-short bench bench-elastic bench-async metrics-smoke trace-smoke check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Custom invariant analyzers (internal/analysis) run through `go vet`:
# randsource, droppederr, poolcapture, secretflow, unuseddirective. See
# DESIGN.md ("Machine-checked invariants" and §13 for the taint model).
vet-custom:
	$(GO) build -o bin/ppml-vet ./cmd/ppml-vet
	$(GO) vet -vettool="$(CURDIR)/bin/ppml-vet" ./...

# vet-custom plus the interprocedural taint trace under each flow
# diagnostic: one witness step per line (where the secret originated, which
# helpers and fields it moved through, where it reached the sink).
vet-flow:
	$(GO) build -o bin/ppml-vet ./cmd/ppml-vet
	$(GO) vet -vettool="$(CURDIR)/bin/ppml-vet" -trace ./...

# Live telemetry endpoint smoke: train a tiny job with -metrics-addr and
# scrape the running process (scripts/check.sh runs the same script).
metrics-smoke:
	sh scripts/metrics_smoke.sh

# Flight-recorder smoke: run the ppml-trace chaos fixture and assert the
# critical-path attribution names the injected straggler (>=90% of faulted
# rounds) and the Chrome trace output parses.
trace-smoke:
	sh scripts/trace_smoke.sh

# Short fuzz pass over the wire codecs (~40s total), same as the check gate.
fuzz-short:
	$(GO) test -fuzz FuzzFixedpointRoundtrip -fuzztime 10s -run '^$$' ./internal/fixedpoint/
	$(GO) test -fuzz FuzzWireDecode -fuzztime 10s -run '^$$' ./internal/transport/
	$(GO) test -fuzz FuzzWireDecode -fuzztime 10s -run '^$$' ./internal/mapreduce/
	$(GO) test -fuzz FuzzPackedRoundtrip -fuzztime 10s -run '^$$' ./internal/paillier/

# Full benchmark sweep with allocation stats (slow).
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Straggler-recovery measurement: round latency vs injected delay at M=16,
# demote-and-continue vs abort-and-restart, written to BENCH_elastic.json.
bench-elastic:
	$(GO) run ./cmd/ppml-figures -panel elastic -learners 16 -json BENCH_elastic.json

# Async-round measurement: bulk-synchronous vs bounded-staleness + minibatch
# time-to-target-accuracy under a flaky link, written to BENCH_async.json.
bench-async:
	$(GO) run ./cmd/ppml-figures -panel async -json BENCH_async.json

# The pre-merge gate: scripts/check.sh = source gates (context, logging, one
# event ring, one mapper per scheme, Gram-free HL, closed compute layer, escape
# hygiene) + vet (standard + custom analyzers) + build + race tests + short
# fuzz + bench smoke + metrics smoke.
check:
	./scripts/check.sh
