package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// serialization format: a fixed magic/version header, the configuration as
// int64 fields, then every parameter tensor as little-endian float64s in a
// fixed order (per layer: forward W, forward B, reverse W, reverse B; then
// per head: W, B). Version 2 adds a head table (count, then kind/classes per
// head) between the config header and the weights; version 1 checkpoints —
// one implicit classifier head derived from Arch/Classes — still load.
const (
	modelMagic   = "BPAR0002"
	modelMagicV1 = "BPAR0001"
)

// Save writes the model (configuration and all weights) to w.
func (m *Model) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(modelMagic); err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	cfg := m.Cfg
	header := []int64{
		int64(cfg.Cell), int64(cfg.Arch), int64(cfg.Merge),
		int64(cfg.InputSize), int64(cfg.HiddenSize), int64(cfg.Layers),
		int64(cfg.SeqLen), int64(cfg.Batch), int64(cfg.Classes),
		int64(cfg.MiniBatches), int64(cfg.Seed),
		int64(len(cfg.Heads)),
	}
	for _, h := range cfg.Heads {
		header = append(header, int64(h.Kind), int64(h.Classes))
	}
	for _, v := range header {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("core: save header: %w", err)
		}
	}
	for _, p := range m.params {
		for _, data := range [][]float64{p.W.Data, p.B} {
			if err := binary.Write(bw, binary.LittleEndian, data); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// LoadModel reads a model previously written by Save, accepting both the
// current format and version 1 (single baked-in classifier head).
func LoadModel(r io.Reader) (*Model, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(modelMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("core: load magic: %w", err)
	}
	if string(magic) != modelMagic && string(magic) != modelMagicV1 {
		return nil, fmt.Errorf("core: bad magic %q (want %q or %q)", magic, modelMagic, modelMagicV1)
	}
	readI64 := func() (int64, error) {
		var v int64
		err := binary.Read(br, binary.LittleEndian, &v)
		return v, err
	}
	header := make([]int64, 11)
	for i := range header {
		var err error
		if header[i], err = readI64(); err != nil {
			return nil, fmt.Errorf("core: load header: %w", err)
		}
	}
	cfg := Config{
		Cell: CellKind(header[0]), Arch: Arch(header[1]), Merge: MergeOp(header[2]),
		InputSize: int(header[3]), HiddenSize: int(header[4]), Layers: int(header[5]),
		SeqLen: int(header[6]), Batch: int(header[7]), Classes: int(header[8]),
		MiniBatches: int(header[9]), Seed: uint64(header[10]),
	}
	if string(magic) == modelMagic {
		nHeads, err := readI64()
		if err != nil {
			return nil, fmt.Errorf("core: load head table: %w", err)
		}
		for i := int64(0); i < nHeads; i++ {
			kind, err := readI64()
			if err != nil {
				return nil, fmt.Errorf("core: load head %d kind: %w", i, err)
			}
			classes, err := readI64()
			if err != nil {
				return nil, fmt.Errorf("core: load head %d classes: %w", i, err)
			}
			cfg.Heads = append(cfg.Heads, HeadSpec{Kind: HeadKind(kind), Classes: int(classes)})
		}
	}
	m, err := NewModel(cfg)
	if err != nil {
		return nil, fmt.Errorf("core: load config: %w", err)
	}
	// Version 1 bodies carry exactly one head's W and B, which is also the
	// effective-head layout NewModel derives for a headless config.
	for _, p := range m.params {
		if err := binary.Read(br, binary.LittleEndian, p.W.Data); err != nil {
			return nil, fmt.Errorf("core: load %s weights: %w", p.name, err)
		}
		if err := binary.Read(br, binary.LittleEndian, p.B); err != nil {
			return nil, fmt.Errorf("core: load %s bias: %w", p.name, err)
		}
	}
	return m, nil
}
