package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/bin"
	"repro/internal/gos"
	"repro/internal/target"
)

// The expected outputs live in the benchmark's own directory, so a
// change to the program's own tables cannot silently move the record
// the benchmark checks against.
//
//go:embed expected.json
var expectedJSON []byte

type expectation struct {
	Table2Tools    []string            `json:"table2_tools"`
	Table2         map[string][]string `json:"table2"`
	ExtendedBombs  []string            `json:"extended_bombs"`
	ExtendedSolved []string            `json:"extended_solved"`
	CongolicFuncs  []string            `json:"congolic_funcs"`
	CongolicGolden string              `json:"congolic_golden"`
}

func loadExpectation() (*expectation, error) {
	var e expectation
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &e, nil
}

// table2Label returns the paper's label for one Table II cell.
func (e *expectation) table2Label(bomb, tool string) (string, bool) {
	row, ok := e.Table2[bomb]
	if !ok {
		return "", false
	}
	for i, t := range e.Table2Tools {
		if t == tool && i < len(row) {
			return row[i], true
		}
	}
	return "", false
}

// extendedSolved reports whether the designed spread (no fuzzing)
// solves an extended cell.
func (e *expectation) extendedSolved(bomb, tool string) bool {
	for _, s := range e.ExtendedSolved {
		b, t, _ := strings.Cut(s, "/")
		if (b == "*" || b == bomb) && t == tool {
			return true
		}
	}
	return false
}

// goldenSites parses the congolic golden report into function name ->
// detonation-site description, with source paths reduced to their base
// name so the record holds wherever the package is loaded from.
func goldenSites(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sites := map[string]string{}
	fn := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "func "); ok {
			fn, _, _ = strings.Cut(rest, "(")
		}
		if rest, ok := strings.CutPrefix(line, "machine replay: detonated at "); ok && fn != "" {
			sites[fn] = baseSite(rest)
		}
	}
	if len(sites) == 0 {
		return nil, fmt.Errorf("%s: no detonation sites", path)
	}
	return sites, nil
}

// baseSite rewrites "<what> at <dir>/<file>:<line>:<col>" to
// "<what> at <file>:<line>:<col>".
func baseSite(desc string) string {
	i := strings.LastIndex(desc, " at ")
	if i < 0 {
		return desc
	}
	return desc[:i+4] + filepath.Base(desc[i+4:])
}

// detonates replays in concretely on img, watching addr, and reports
// whether the run executed it.
func detonates(img *bin.Image, addr uint64, in target.Input) bool {
	cfg := in.Config()
	cfg.WatchAddrs = []uint64{addr}
	m, err := gos.New(img, cfg)
	if err != nil {
		return false
	}
	return m.Run().Hit(addr)
}
