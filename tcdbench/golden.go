package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"github.com/tcdnet/tcd/internal/exp"
	"github.com/tcdnet/tcd/internal/obs"
	"github.com/tcdnet/tcd/internal/units"
)

// checkGolden reproduces the committed fig3 and fig12 golden results
// (CEE, seed 1, 2 ms, with the JSONL event trace) and compares them byte
// for byte, as internal/exp's golden test does. A simulator that no
// longer reproduces them is not worth timing.
func checkGolden(dir string) error {
	for _, g := range []struct {
		name string
		det  exp.DetectorKind
	}{{"fig3", exp.DetBaseline}, {"fig12", exp.DetTCD}} {
		wantRes, err := os.ReadFile(filepath.Join(dir, g.name+".json"))
		if err != nil {
			return fmt.Errorf("golden: %w", err)
		}
		wantTrace, err := os.ReadFile(filepath.Join(dir, g.name+".trace.jsonl"))
		if err != nil {
			return fmt.Errorf("golden: %w", err)
		}
		cfg := exp.DefaultObserveConfig(exp.CEE, g.det, false)
		cfg.Seed = 1
		cfg.Horizon = 2 * units.Millisecond
		// One slot more than the golden trace has events: a run that
		// emits more still differs from it, and the ring stays small
		// (the default capacity would dominate the peak RSS measured).
		ring := obs.NewRing(bytes.Count(wantTrace, []byte("\n")) + 1)
		cfg.Obs = obs.Config{Rec: ring}
		res := exp.Observe(cfg)
		var rb, tb bytes.Buffer
		if err := res.WriteJSON(&rb); err != nil {
			return err
		}
		if err := ring.WriteJSONL(&tb); err != nil {
			return err
		}
		if !bytes.Equal(rb.Bytes(), wantRes) {
			return fmt.Errorf("golden: %s.json is not reproduced", g.name)
		}
		if !bytes.Equal(tb.Bytes(), wantTrace) {
			return fmt.Errorf("golden: %s.trace.jsonl is not reproduced", g.name)
		}
	}
	return nil
}
