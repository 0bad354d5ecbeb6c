package sim

import "igosim/internal/schedule"

// Helpers the external test files (package sim_test) share with the
// in-package tests.
var (
	TestCfg   = testCfg
	Params    = params
	RunPhases = runPhases
)

// The external FuzzResidency drives a residency set through these.

func NewResidency(capacity int64, n int) *residency { return newResidency(capacity, n) }

func (r *residency) Touch(id int) bool { return r.touch(schedule.TileID(id)) }
func (r *residency) Insert(id int, bytes int64) ([]int32, bool) {
	return r.insert(schedule.TileID(id), bytes)
}
func (r *residency) Remove(id int) bool   { return r.remove(schedule.TileID(id)) }
func (r *residency) Resident(id int) bool { return r.slots[id].bytes != 0 }
func (r *residency) Bytes(id int) int64   { return r.slots[id].bytes }
func (r *residency) Used() int64          { return r.used }
func (r *residency) Keys() []int32        { return r.keys() }
func (r *residency) Stats() SPMStats      { return r.stats }
