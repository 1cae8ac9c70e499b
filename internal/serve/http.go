package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"bpar/internal/obs"
)

// maxBodyBytes bounds one request body; a full batch of 512-frame
// 1024-feature float64 sequences fits comfortably.
const maxBodyBytes = 64 << 20

// InferRequest is the wire format of POST /v1/probs and /v1/classify: one
// or more sequences, each a [timestep][feature] frame matrix whose feature
// width must equal the model's InputSize.
type InferRequest struct {
	Sequences [][][]float64 `json:"sequences"`
}

// SequenceResult is one sequence's answer. For single-head models the flat
// fields carry the payload, exactly as before multi-head support: Probs is
// populated by /v1/probs — one row for many-to-one models, one per timestep
// for many-to-many, each Classes wide — and Labels by /v1/classify with the
// argmax of the same rows. Models with more than one configured head answer
// with Heads instead, one entry per head in declaration order.
type SequenceResult struct {
	SeqLen int          `json:"seq_len"`
	Probs  [][]float64  `json:"probs,omitempty"`
	Labels []int        `json:"labels,omitempty"`
	Heads  []HeadResult `json:"heads,omitempty"`
}

// HeadResult is one head's slice of a multi-head answer. Kind is the head
// kind ("classify", "tag", "generate"); Probs/Labels follow the same
// endpoint split as the flat fields, with one row (classify) or one per
// real timestep (tag, generate).
type HeadResult struct {
	Kind   string      `json:"kind"`
	Probs  [][]float64 `json:"probs,omitempty"`
	Labels []int       `json:"labels,omitempty"`
}

// InferResponse is the wire format of a successful inference answer.
// Results aligns with the request's sequence order.
type InferResponse struct {
	Results []SequenceResult `json:"results"`
}

// errorResponse is the wire format of every non-200 answer.
type errorResponse struct {
	Error string `json:"error"`
}

// Routes mounts the service endpoints on mux:
//
//	POST /v1/probs     full class-probability distributions
//	POST /v1/classify  argmax class labels
//
// Telemetry endpoints (/metrics, /healthz, /debug/pprof) come from the obs
// mux the caller usually mounts these next to.
func (s *Server) Routes(mux *http.ServeMux) {
	mux.HandleFunc("/v1/probs", func(w http.ResponseWriter, r *http.Request) {
		s.handleInfer(w, r, false)
	})
	mux.HandleFunc("/v1/classify", func(w http.ResponseWriter, r *http.Request) {
		s.handleInfer(w, r, true)
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		obs.Logger("serve").Warn("response write failed", "err", err)
	}
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		// Back off for roughly a batch window's worth of drainage; seconds
		// are the Retry-After granularity, so 1 is the floor.
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// handleInfer is the shared request path: decode, validate, admit every
// sequence into the batching pipeline, await the results, answer.
func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request, classify bool) {
	startReq := time.Now()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req InferRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(&req); err != nil {
		s.met.reqBad.Inc()
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	items, err := s.buildItems(req.Sequences)
	if err != nil {
		s.met.reqBad.Inc()
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	switch status := s.admit(items); status {
	case 0:
	case http.StatusServiceUnavailable:
		s.met.reqUnavailable.Inc()
		writeError(w, status, "draining, not accepting new work")
		return
	default:
		s.met.reqRejected.Inc()
		writeError(w, status, "queue full (%d sequences in flight)", s.inflight.Load())
		return
	}

	resp := InferResponse{Results: make([]SequenceResult, len(items))}
	for i, it := range items {
		select {
		case res := <-it.done:
			if res.err != nil {
				s.met.reqErr.Inc()
				writeError(w, http.StatusInternalServerError, "inference failed: %v", res.err)
				return
			}
			resp.Results[i] = buildResult(it.origT, res.heads, classify)
		case <-r.Context().Done():
			// Client gone; the remaining items complete into their buffered
			// channels and are garbage collected.
			s.met.reqCanceled.Inc()
			return
		}
	}
	s.met.reqOK.Inc()
	s.met.latency.Observe(time.Since(startReq).Seconds())
	writeJSON(w, http.StatusOK, resp)
}

// buildItems validates the request sequences and wraps them as queue items.
func (s *Server) buildItems(seqs [][][]float64) ([]*item, error) {
	cfg := s.cfg.Model.Cfg
	if len(seqs) == 0 {
		return nil, fmt.Errorf("no sequences")
	}
	if len(seqs) > s.cfg.QueueCap {
		return nil, fmt.Errorf("%d sequences exceed the admission capacity of %d", len(seqs), s.cfg.QueueCap)
	}
	items := make([]*item, len(seqs))
	for i, frames := range seqs {
		if len(frames) == 0 {
			return nil, fmt.Errorf("sequence %d is empty", i)
		}
		if len(frames) > s.cfg.MaxSeqLen {
			return nil, fmt.Errorf("sequence %d has %d frames, limit %d", i, len(frames), s.cfg.MaxSeqLen)
		}
		for t, f := range frames {
			if len(f) != cfg.InputSize {
				return nil, fmt.Errorf("sequence %d frame %d has %d features, want %d", i, t, len(f), cfg.InputSize)
			}
		}
		items[i] = &item{
			frames: frames,
			T:      s.bucketLen(len(frames)),
			origT:  len(frames),
			done:   make(chan itemResult, 1),
		}
	}
	return items, nil
}

// buildResult shapes one sequence's answer: flat fields for single-head
// models (the pre-multi-head wire format, unchanged), per-head entries
// otherwise.
func buildResult(origT int, heads []headProbs, classify bool) SequenceResult {
	sr := SequenceResult{SeqLen: origT}
	if len(heads) == 1 {
		if classify {
			sr.Labels = argmaxRows(heads[0].rows)
		} else {
			sr.Probs = heads[0].rows
		}
		return sr
	}
	sr.Heads = make([]HeadResult, len(heads))
	for h, hp := range heads {
		hr := HeadResult{Kind: hp.kind.String()}
		if classify {
			hr.Labels = argmaxRows(hp.rows)
		} else {
			hr.Probs = hp.rows
		}
		sr.Heads[h] = hr
	}
	return sr
}

func argmaxRows(rows [][]float64) []int {
	out := make([]int, len(rows))
	for i, row := range rows {
		out[i] = argmax(row)
	}
	return out
}

// argmax matches tensor.ArgmaxRows tie-breaking: first maximum wins.
func argmax(row []float64) int {
	best := 0
	for i, v := range row {
		if v > row[best] {
			best = i
		}
	}
	return best
}
