package obs

import (
	"encoding/json"
	"fmt"
)

// FieldKey names one interval/run-end metric. The telemetry schema is
// closed — every emitter picks from this enum — so Fields can store
// values in a fixed array instead of the per-event map[string]float64
// the emission hot path used to allocate and hash through.
type FieldKey uint8

// Field keys, in the alphabetical order of their wire names (the order
// encoding/json gives sorted map keys, which the JSONL codec preserves).
const (
	FieldDRAMBWUtil   FieldKey = iota // dram_bw_util
	FieldIPC                          // ipc
	FieldIPC0                         // ipc0
	FieldIPC1                         // ipc1
	FieldMPKI                         // mpki
	FieldPrefAccuracy                 // pref_accuracy
	FieldPrefCoverage                 // pref_coverage
	FieldSumIPC                       // sum_ipc

	numFieldKeys
)

// fieldNames are the wire names, indexed by FieldKey.
var fieldNames = [numFieldKeys]string{
	"dram_bw_util",
	"ipc",
	"ipc0",
	"ipc1",
	"mpki",
	"pref_accuracy",
	"pref_coverage",
	"sum_ipc",
}

// String returns the key's wire name.
func (k FieldKey) String() string {
	if k < numFieldKeys {
		return fieldNames[k]
	}
	return fmt.Sprintf("fieldkey(%d)", uint8(k))
}

// fieldKeyByName resolves a wire name, reporting failure for unknown
// names (the decoder drops those).
func fieldKeyByName(name string) (FieldKey, bool) {
	for k, n := range fieldNames {
		if n == name {
			return FieldKey(k), true
		}
	}
	return 0, false
}

// Fields is a small set of named metrics on an event: a presence mask
// plus a value per possible key. The zero value is empty and ready to
// use; Set returns its receiver so emitters can chain.
//
// On the wire Fields is the same JSON object the old map encoding
// produced — keys in sorted order, absent keys omitted — so recorded
// streams stay byte-identical.
type Fields struct {
	mask uint16
	vals [numFieldKeys]float64
}

// NewFields returns an empty field set.
func NewFields() *Fields { return &Fields{} }

// Set stores v under k and returns f.
func (f *Fields) Set(k FieldKey, v float64) *Fields {
	f.mask |= 1 << k
	f.vals[k] = v
	return f
}

// Get returns the value under k. It is nil-safe: a nil or empty Fields
// reports every key absent.
func (f *Fields) Get(k FieldKey) (float64, bool) {
	if f == nil || f.mask&(1<<k) == 0 {
		return 0, false
	}
	return f.vals[k], true
}

// Len returns the number of set keys. Nil-safe.
func (f *Fields) Len() int {
	if f == nil {
		return 0
	}
	n := 0
	for m := f.mask; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// MarshalJSON encodes the set keys as a JSON object. Encoding goes
// through a string map so the bytes match the historical map encoding
// exactly (sorted keys, identical float formatting).
func (f *Fields) MarshalJSON() ([]byte, error) {
	m := make(map[string]float64, f.Len())
	for k := FieldKey(0); k < numFieldKeys; k++ {
		if f.mask&(1<<k) != 0 {
			m[fieldNames[k]] = f.vals[k]
		}
	}
	return json.Marshal(m)
}

// UnmarshalJSON decodes a JSON object, dropping unknown keys — the same
// forward-compatibility contract the event codec applies to unknown
// event fields.
func (f *Fields) UnmarshalJSON(data []byte) error {
	var m map[string]float64
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	*f = Fields{}
	for name, v := range m {
		if k, ok := fieldKeyByName(name); ok {
			f.Set(k, v)
		}
	}
	return nil
}
