// Package detmaptest is the detmap analyzer fixture: map-range loops with
// order-dependent effects must be flagged; order-insensitive or explicitly
// sorted loops must not.
package detmaptest

import (
	"fmt"
	"sort"
	"strings"
)

func emitUnsorted(m map[string]int) {
	for k, v := range m { // want `map iteration order reaches output via fmt\.Printf`
		fmt.Printf("%s=%d\n", k, v)
	}
}

func errUnsorted(m map[string]int) error {
	for k := range m { // want `map iteration order reaches output via fmt\.Errorf`
		if k == "" {
			return fmt.Errorf("empty key in map of %d entries", len(m))
		}
	}
	return nil
}

func writeUnsorted(m map[string]int, b *strings.Builder) {
	for k := range m { // want `map iteration order reaches output via method WriteString`
		b.WriteString(k)
	}
}

func appendUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m { // want `map iteration appends to keys in nondeterministic order`
		keys = append(keys, k)
	}
	return keys
}

// lastKey keeps whichever key the map yields last.
func lastKey(m map[string]bool) string {
	var last string
	for k := range m { // want `map iteration assigns k to last, declared outside the loop`
		last = k
	}
	return last
}

type pick struct{ n int }

// lastValueField writes the iteration value into a field of an outer
// variable.
func lastValueField(m map[string]int) pick {
	var p pick
	for _, v := range m { // want `map iteration assigns v to p, declared outside the loop`
		p.n = v
	}
	return p
}

// perKeyWrites are order-insensitive: each key writes its own element,
// the loop-local copy dies with its iteration, and the outer write is
// not a bare iteration variable.
func perKeyWrites(m map[string]int) (map[int]string, int) {
	inv := make(map[int]string, len(m))
	best := 0
	for k, v := range m {
		inv[v] = k
		var local string
		local = k
		_ = local
		best = max(best, v)
	}
	return inv, best
}

// sortedKeysPattern mirrors stats.SortedKeys: append then sort is the
// sanctioned way to turn a map into a deterministic sequence.
func sortedKeysPattern(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// sumOnly is order-insensitive: accumulation commutes.
func sumOnly(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// viaSorted emits from a slice, not a map: the loop the fix produces.
func viaSorted(m map[string]int) {
	for _, k := range sortedKeysPattern(m) {
		fmt.Println(k, m[k])
	}
}

// suppressed shows the marker escape hatch.
func suppressed(m map[string]int) {
	//lint:detmap fixture demonstrating the escape hatch
	for k := range m {
		fmt.Println(k)
	}
}

// loopLocal appends to a slice scoped inside the loop body: each
// iteration's slice dies with the iteration, so order cannot leak.
func loopLocal(m map[string][]int) int {
	n := 0
	for _, vs := range m {
		var local []int
		local = append(local, vs...)
		n += len(local)
	}
	return n
}

// logEntry prints through one level of indirection.
func logEntry(k string, v int) {
	fmt.Println(k, v)
}

// logDeep prints through two levels.
func logDeep(k string, v int) {
	logEntry(k, v)
}

// viaHelper emits through a helper call: the whole-program call graph
// proves the helper transitively prints.
func viaHelper(m map[string]int) {
	for k, v := range m { // want `map iteration order reaches output via call to logEntry, which transitively prints`
		logEntry(k, v)
	}
}

// viaDeepHelper emits through two helper hops.
func viaDeepHelper(m map[string]int) {
	for k, v := range m { // want `map iteration order reaches output via call to logDeep, which transitively prints`
		logDeep(k, v)
	}
}

// viaPureHelper calls a helper that never prints: clean.
func viaPureHelper(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += double(v)
	}
	return n
}

// double is a pure helper.
func double(v int) int { return 2 * v }
