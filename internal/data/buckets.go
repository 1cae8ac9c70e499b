package data

import (
	"fmt"
	"sort"

	"bpar/internal/core"
)

// Bucketer rounds sequence lengths up to a small, fixed set of bucket
// boundaries. Bucketing is the standard compromise between padding waste
// (one giant SeqLen for everything) and graph churn (one task graph per
// distinct length): the engine caches workspaces and replay templates per
// sequence length, so admitting only bucket lengths keeps the cache hot
// while bounding padded frames per row to the gap below the next boundary.
type Bucketer struct {
	bounds []int
}

// NewBucketer validates and wraps a bucket boundary set: non-empty, every
// boundary positive, strictly increasing.
func NewBucketer(bounds []int) (*Bucketer, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("data: empty bucket set")
	}
	for i, b := range bounds {
		if b <= 0 {
			return nil, fmt.Errorf("data: bucket %d is %d, want positive", i, b)
		}
		if i > 0 && b <= bounds[i-1] {
			return nil, fmt.Errorf("data: buckets must be strictly increasing, got %d after %d", b, bounds[i-1])
		}
	}
	return &Bucketer{bounds: append([]int(nil), bounds...)}, nil
}

// Max returns the largest bucket boundary.
func (bk *Bucketer) Max() int { return bk.bounds[len(bk.bounds)-1] }

// Round returns the smallest boundary >= n; lengths beyond the last
// boundary clamp to it (callers truncate such sequences).
func (bk *Bucketer) Round(n int) int {
	i := sort.SearchInts(bk.bounds, n)
	if i == len(bk.bounds) {
		return bk.Max()
	}
	return bk.bounds[i]
}

// BucketBatcher groups a tagging corpus's variable-length sequences into
// per-bucket queues and emits a full batch as soon as any bucket has enough
// rows: every row of an emitted batch shares one bucketed sequence length,
// and Batch.Lens records each row's true length for the engine's masking.
type BucketBatcher struct {
	corpus *TagCorpus
	bk     *Bucketer
	batch  int
	queues map[int][][]int // bucket bound -> pending symbol sequences
}

// NewBucketBatcher builds a batcher emitting batches of the given row count.
func NewBucketBatcher(c *TagCorpus, bk *Bucketer, batch int) *BucketBatcher {
	if batch <= 0 {
		panic(fmt.Sprintf("data: batch %d", batch))
	}
	return &BucketBatcher{corpus: c, bk: bk, batch: batch, queues: make(map[int][][]int)}
}

// Next draws sequences from the corpus until some bucket fills, then
// assembles and returns that bucket's batch. Deterministic given the
// corpus seed.
func (bb *BucketBatcher) Next() *core.Batch {
	for {
		syms := bb.corpus.Sample()
		T := bb.bk.Round(len(syms))
		if len(syms) > T {
			syms = syms[:T] // beyond the last bucket: truncate
		}
		q := append(bb.queues[T], syms)
		if len(q) < bb.batch {
			bb.queues[T] = q
			continue
		}
		bb.queues[T] = nil
		return bb.corpus.assemble(q, T)
	}
}
