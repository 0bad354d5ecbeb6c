// Manifest/benchmark diffing: the engine behind cmd/igostat and the
// make perf-check gate. Two JSON documents (run manifests or BENCH_*.json
// artifacts) are flattened to dotted metric paths and compared leaf by
// leaf; any worsening beyond its tolerance is a named regression.
//
// Direction matters: most metrics are costs (cycles, traffic, allocs —
// lower is better), a known set are benefits (speedup, hit_rate,
// points_per_sec — higher is better). Structural changes — a metric
// missing from one side, a string field changing — always fail: the gate's
// job is to force the baseline to be regenerated deliberately, in the same
// change that moved the numbers.
package metrics

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Tolerance is one allowance from a -tol spec: Key selects metrics (a
// substring of the leaf field name, a full path substring, or the pseudo-key
// "wall" matching all wall-clock-derived leaves); the allowance is Frac
// (relative, from "15%") or Abs (absolute units). The last matching
// tolerance in the list wins.
type Tolerance struct {
	Key  string
	Frac float64
	Abs  float64
}

// ParseTolerances parses a comma-separated "key=value" list where value is
// either an absolute number ("cycles=0") or a percentage ("wall=15%").
func ParseTolerances(s string) ([]Tolerance, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []Tolerance
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		key, val, ok := strings.Cut(part, "=")
		if !ok || key == "" {
			return nil, fmt.Errorf("bad tolerance %q (want key=value or key=pct%%)", part)
		}
		t := Tolerance{Key: key}
		if pct, isRel := strings.CutSuffix(val, "%"); isRel {
			f, err := strconv.ParseFloat(pct, 64)
			if err != nil || f < 0 {
				return nil, fmt.Errorf("bad tolerance %q (want a non-negative percentage)", part)
			}
			t.Frac = f / 100
		} else {
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 {
				return nil, fmt.Errorf("bad tolerance %q (want a non-negative number)", part)
			}
			t.Abs = f
		}
		out = append(out, t)
	}
	return out, nil
}

// wallLeaves are leaf field names measuring (or derived from) host
// execution time — the only leaves the "wall" pseudo-tolerance matches.
var wallLeaves = map[string]bool{
	"ns_op":          true,
	"mb_s":           true,
	"wall_seconds":   true,
	"points_per_sec": true,
	"speedup":        true,
	"allocs_ratio":   true,
	"seconds":        true,
	"p50_us":         true,
	"p99_us":         true,
	"rps":            true,
	// Two-phase executor statistics that vary by a few events with miss
	// races under -j (the deterministic counterpart, "resolutions", is the
	// residency cache's distinct-key census and is gated exactly).
	"replays":            true,
	"reuse_ratio":        true,
	"residency_hit_rate": true,
}

// higherBetter are leaf field names where an increase is an improvement;
// every other numeric leaf is treated as a cost.
var higherBetter = map[string]bool{
	"speedup":            true,
	"mb_s":               true,
	"points_per_sec":     true,
	"hit_rate":           true,
	"reduction":          true,
	"pruned_fraction":    true,
	"allocs_ratio":       true,
	"rps":                true,
	"reuse_ratio":        true,
	"residency_hit_rate": true,
}

// Regression is one gate violation.
type Regression struct {
	Path    string
	Old     string
	New     string
	Allowed float64
	Note    string
}

func (r Regression) String() string {
	if r.Note != "" {
		return fmt.Sprintf("%s: %s -> %s (%s)", r.Path, r.Old, r.New, r.Note)
	}
	return fmt.Sprintf("%s: %s -> %s (allowed %g)", r.Path, r.Old, r.New, r.Allowed)
}

// DiffResult is one comparison's outcome.
type DiffResult struct {
	Compared    int
	Improved    int
	Regressions []Regression
}

// OK reports whether the gate passes.
func (d DiffResult) OK() bool { return len(d.Regressions) == 0 }

// Diff compares two JSON documents under the given tolerances and returns
// every regression, sorted by metric path.
func Diff(oldData, newData []byte, tols []Tolerance) (DiffResult, error) {
	oldNums, oldStrs, err := Flatten(oldData)
	if err != nil {
		return DiffResult{}, fmt.Errorf("old: %w", err)
	}
	newNums, newStrs, err := Flatten(newData)
	if err != nil {
		return DiffResult{}, fmt.Errorf("new: %w", err)
	}

	var res DiffResult
	for _, path := range sortedKeys(oldNums) {
		oldV := oldNums[path]
		newV, ok := newNums[path]
		if !ok {
			res.Regressions = append(res.Regressions, Regression{
				Path: path, Old: fmtNum(oldV), New: "-", Note: "missing from new"})
			continue
		}
		res.Compared++
		leaf := leafName(path)
		worse := newV - oldV
		if higherBetter[leaf] {
			worse = oldV - newV
		}
		if worse <= 0 {
			if worse < 0 {
				res.Improved++
			}
			continue
		}
		allowed := allowance(path, leaf, oldV, tols)
		if worse > allowed {
			res.Regressions = append(res.Regressions, Regression{
				Path: path, Old: fmtNum(oldV), New: fmtNum(newV), Allowed: allowed})
		}
	}
	for _, path := range sortedKeys(newNums) {
		if _, ok := oldNums[path]; !ok {
			res.Regressions = append(res.Regressions, Regression{
				Path: path, Old: "-", New: fmtNum(newNums[path]), Note: "not in old (regenerate the baseline)"})
		}
	}
	for _, path := range sortedKeys(oldStrs) {
		oldV := oldStrs[path]
		newV, ok := newStrs[path]
		switch {
		case !ok:
			res.Regressions = append(res.Regressions, Regression{
				Path: path, Old: oldV, New: "-", Note: "missing from new"})
		case oldV != newV:
			res.Compared++
			res.Regressions = append(res.Regressions, Regression{
				Path: path, Old: oldV, New: newV, Note: "changed"})
		default:
			res.Compared++
		}
	}
	for _, path := range sortedKeys(newStrs) {
		if _, ok := oldStrs[path]; !ok {
			res.Regressions = append(res.Regressions, Regression{
				Path: path, Old: "-", New: newStrs[path], Note: "not in old (regenerate the baseline)"})
		}
	}
	sort.Slice(res.Regressions, func(i, j int) bool { return res.Regressions[i].Path < res.Regressions[j].Path })
	return res, nil
}

// allowance resolves the effective tolerance for one leaf: the last
// matching -tol entry wins, default zero.
func allowance(path, leaf string, oldV float64, tols []Tolerance) float64 {
	out := 0.0
	for _, t := range tols {
		match := false
		if t.Key == "wall" {
			match = wallLeaves[leaf]
		} else {
			match = strings.Contains(leaf, t.Key) || strings.Contains(path, t.Key)
		}
		if match {
			out = t.Abs + t.Frac*abs(oldV)
		}
	}
	return out
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Flatten decodes a JSON document into dotted numeric and string leaf
// maps. Arrays of objects are keyed by their "name" (or "model", "id")
// field when those values are unique, by index otherwise, so a benchmark
// list survives reordering.
func Flatten(data []byte) (map[string]float64, map[string]string, error) {
	var v any
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.UseNumber()
	if err := dec.Decode(&v); err != nil {
		return nil, nil, err
	}
	nums := map[string]float64{}
	strs := map[string]string{}
	flattenInto("", v, nums, strs)
	return nums, strs, nil
}

func flattenInto(path string, v any, nums map[string]float64, strs map[string]string) {
	switch v := v.(type) {
	case map[string]any:
		for _, k := range sortedAnyKeys(v) {
			flattenInto(join(path, k), v[k], nums, strs)
		}
	case []any:
		keys := elementKeys(v)
		for i, e := range v {
			flattenInto(path+"["+keys[i]+"]", e, nums, strs)
		}
	case json.Number:
		f, err := v.Float64()
		if err == nil {
			nums[path] = f
		} else {
			strs[path] = v.String()
		}
	case string:
		strs[path] = v
	case bool:
		strs[path] = strconv.FormatBool(v)
	case nil:
		strs[path] = "null"
	}
}

// elementKeys names each array element: a unique "name"/"model"/"id"
// string field when every element has one, the index otherwise.
func elementKeys(arr []any) []string {
	for _, field := range []string{"name", "model", "id"} {
		keys := make([]string, len(arr))
		seen := map[string]bool{}
		ok := true
		for i, e := range arr {
			obj, isObj := e.(map[string]any)
			if !isObj {
				ok = false
				break
			}
			s, isStr := obj[field].(string)
			if !isStr || seen[s] {
				ok = false
				break
			}
			seen[s] = true
			keys[i] = s
		}
		if ok && len(arr) > 0 {
			return keys
		}
	}
	keys := make([]string, len(arr))
	for i := range arr {
		keys[i] = strconv.Itoa(i)
	}
	return keys
}

func join(path, key string) string {
	if path == "" {
		return key
	}
	return path + "." + key
}

func leafName(path string) string {
	if i := strings.LastIndex(path, "."); i >= 0 {
		return path[i+1:]
	}
	return path
}

func fmtNum(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedAnyKeys(m map[string]any) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
