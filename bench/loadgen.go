package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bpar/internal/rng"
	"bpar/internal/serve"
)

// The benchmark's own load generator. It differs from serve.RunLoadGen where
// that one would bend the numbers on a small host: a fixed pool of
// connections instead of a goroutine per arrival, bodies marshalled before
// the phase, the whole arrival schedule computed before the first send, open
// loop latency from the time a request was due, and percentiles by nearest
// rank over every sample.

// answer is one sequence's probabilities: [head][row][class].
type answer [][][]float64

// payload is one pre-marshalled request and the answers it must get.
type payload struct {
	body []byte
	want []answer // one per sequence, request order
}

// sender delivers one request body and returns the status and the response
// body: over loopback HTTP, or straight into the handler.
type sender func(body []byte) (int, []byte, error)

// httpSender posts to url through hc. Connections are kept alive: the pool
// is bounded by the transport, never by this function.
func httpSender(hc *http.Client, url string) sender {
	return func(body []byte) (int, []byte, error) {
		resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		return resp.StatusCode, raw, err
	}
}

// handlerSender calls the handler in memory: no socket, no HTTP framing.
func handlerSender(h http.Handler, path string) sender {
	return func(body []byte) (int, []byte, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec.Code, rec.Body.Bytes(), nil
	}
}

// answersOf reads the probabilities out of a /v1/probs response: the flat
// field of a single-head model is its only head.
func answersOf(raw []byte) ([]answer, error) {
	var resp serve.InferResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, err
	}
	out := make([]answer, len(resp.Results))
	for i, r := range resp.Results {
		if len(r.Heads) == 0 {
			out[i] = answer{r.Probs}
			continue
		}
		for _, h := range r.Heads {
			out[i] = append(out[i], h.Probs)
		}
	}
	return out, nil
}

// matches reports whether got equals want in shape and, per probability,
// within tol; tol 0 demands the same bits.
func matches(got, want []answer, tol float64) bool {
	if len(got) != len(want) {
		return false
	}
	for s := range want {
		if len(got[s]) != len(want[s]) {
			return false
		}
		for h := range want[s] {
			if len(got[s][h]) != len(want[s][h]) {
				return false
			}
			for r := range want[s][h] {
				g, w := got[s][h][r], want[s][h][r]
				if len(g) != len(w) {
					return false
				}
				for c := range w {
					if tol == 0 {
						if math.Float64bits(g[c]) != math.Float64bits(w[c]) {
							return false
						}
					} else if !(math.Abs(g[c]-w[c]) <= tol) { // a NaN fails
						return false
					}
				}
			}
		}
	}
	return true
}

// target is what a phase sends and how it judges the answers.
type target struct {
	send     sender
	payloads []payload
	tol      float64
}

// do sends payload i and reports whether the answer was 200 and correct.
func (t *target) do(i int) bool {
	p := &t.payloads[i%len(t.payloads)]
	code, raw, err := t.send(p.body)
	if err != nil || code != http.StatusOK {
		return false
	}
	got, err := answersOf(raw)
	return err == nil && matches(got, p.want, t.tol)
}

// phase is what one load phase measured. Only 200-and-correct answers have a
// latency or count towards a rate; every other attempt is a failure.
type phase struct {
	latMS     []float64       // per good answer
	done      []time.Duration // completion offsets of good answers, ascending
	lateMS    []float64       // open loop: how long after its due time each request left
	span      time.Duration
	attempted int
	failed    int
}

// add appends a later phase of the same kind against the same target.
func (p *phase) add(o phase) {
	p.latMS = append(p.latMS, o.latMS...)
	p.lateMS = append(p.lateMS, o.lateMS...)
	for _, d := range o.done {
		p.done = append(p.done, p.span+d)
	}
	p.span += o.span
	p.attempted += o.attempted
	p.failed += o.failed
}

type sample struct {
	lat, done, late time.Duration
	ok              bool
}

func collect(perWorker [][]sample, span time.Duration) phase {
	p := phase{span: span}
	var all []sample
	for _, w := range perWorker {
		all = append(all, w...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].done < all[j].done })
	for _, s := range all {
		p.attempted++
		p.lateMS = append(p.lateMS, ms(s.late))
		if !s.ok {
			p.failed++
			continue
		}
		p.latMS = append(p.latMS, ms(s.lat))
		p.done = append(p.done, s.done)
	}
	return p
}

// closedLoop runs `clients` callers for d, each sending its next request only
// when the previous answer is in. The phase ends on the first whole pass
// through the payloads after d: every body is then sent equally often, so the
// phase's latency sample is the same mix of cheap and dear requests in every
// run and its median does not depend on where in the cycle the clock ran out.
func closedLoop(t *target, clients int, d time.Duration) phase {
	perWorker := make([][]sample, clients)
	var next atomic.Int64
	var stop atomic.Int64 // first index not to send
	stop.Store(math.MaxInt64)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i > 0 && i%int64(len(t.payloads)) == 0 && time.Since(start) >= d {
					stop.CompareAndSwap(math.MaxInt64, i)
				}
				if i >= stop.Load() {
					return
				}
				t0 := time.Now()
				ok := t.do(int(i))
				end := time.Now()
				perWorker[c] = append(perWorker[c], sample{lat: end.Sub(t0), done: end.Sub(start), ok: ok})
			}
		}(c)
	}
	wg.Wait()
	return collect(perWorker, time.Since(start))
}

// warmUp sends every payload once, unmeasured, so the measured phases start
// on a server whose heap, connection and caches are in their steady state.
// The answers are still checked.
func warmUp(t *target) phase { return closedLoop(t, 1, 0) }

// poissonSchedule returns the due times of a Poisson arrival process of the
// given rate over d, as offsets from the phase start. It is computed whole
// before the phase so the generator does no arithmetic between sends, and
// the same stream gives the same schedule.
func poissonSchedule(r *rng.RNG, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	at := 0.0
	for {
		at += -math.Log(1-r.Float64()) / rate
		due := time.Duration(at * float64(time.Second))
		if due >= d {
			return out
		}
		out = append(out, due)
	}
}

// openLoop sends one request per schedule entry from a fixed pool of conns
// senders. A request whose due time finds every sender busy leaves late; its
// latency still counts from the due time, so a stall is charged to every
// request it delayed and not only to the one that stalled.
func openLoop(t *target, conns int, sched []time.Duration) phase {
	perWorker := make([][]sample, conns)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				due := start.Add(sched[i])
				time.Sleep(time.Until(due))
				sent := time.Now()
				ok := t.do(i)
				end := time.Now()
				perWorker[c] = append(perWorker[c], sample{lat: end.Sub(due), done: end.Sub(start), late: sent.Sub(due), ok: ok})
			}
		}(c)
	}
	wg.Wait()
	return collect(perWorker, time.Since(start))
}

func (p phase) String() string {
	return fmt.Sprintf("attempted %d failed %d in %.2fs", p.attempted, p.failed, p.span.Seconds())
}
