package analysis

import "encoding/json"

// Cross-package facts. Shardsafe summarizes the functions of a package
// into FuncFacts so callers in other packages can be checked without
// re-analyzing the callee's source. Facts serialize as JSON: the
// unitchecker driver writes them to cmd/go's .vetx facts file so `go
// vet` caches and threads them exactly like x/tools facts.

// PackageFacts is the exported summary of one package.
type PackageFacts struct {
	// Path is the canonical import path the facts describe.
	Path string `json:"path,omitempty"`

	// Funcs maps a function's canonical ID — "Name" for package
	// functions, "(Recv).Name" for methods, pointer receivers
	// unwrapped — to its summary.
	Funcs map[string]*FuncFact `json:"funcs,omitempty"`

	// SharedTypes maps a named struct type's name to its //mgs:shared /
	// field-annotation summary, so writes to its exported fields from
	// other packages are checked against the same policy.
	SharedTypes map[string]*SharedTypeFact `json:"shared_types,omitempty"`
}

// FuncFact summarizes one function or method.
type FuncFact struct {
	// Unguarded lists writes to mutex-guarded shared fields that the
	// function performs without acquiring the guard itself: the caller
	// must hold it. Shardsafe checks these at every cross-package call
	// site.
	Unguarded []UnguardedWrite `json:"unguarded,omitempty"`
}

// UnguardedWrite is one shared-field write the function leaves for its
// caller to guard.
type UnguardedWrite struct {
	Type  string `json:"type"`  // defining package path + type name, "pkg/path.Type"
	Field string `json:"field"` // written field
	Guard string `json:"guard"` // mutex field that must be held
	Desc  string `json:"desc"`  // "file:line: write to Type.Field"
}

// SharedTypeFact summarizes the concurrency annotations of one struct
// type.
type SharedTypeFact struct {
	// Shared marks the type //mgs:shared: every mutable-field write is
	// checked, annotated or not.
	Shared bool `json:"shared,omitempty"`

	// Fields maps field name to its annotation.
	Fields map[string]*FieldFact `json:"fields,omitempty"`
}

// FieldFact is one field-level annotation.
type FieldFact struct {
	// Kind is "guardedby", "atomic", or "shardpinned".
	Kind string `json:"kind"`
	// Arg is the guarding mutex field (guardedby) or the audit
	// justification (shardpinned).
	Arg string `json:"arg,omitempty"`
}

// Fact returns the FuncFact for id, or nil.
func (p *PackageFacts) Fact(id string) *FuncFact {
	if p == nil {
		return nil
	}
	return p.Funcs[id]
}

// SharedType returns the SharedTypeFact for a type name, or nil.
func (p *PackageFacts) SharedType(name string) *SharedTypeFact {
	if p == nil {
		return nil
	}
	return p.SharedTypes[name]
}

// EncodeFacts serializes facts for a .vetx file (deterministic JSON).
func EncodeFacts(p *PackageFacts) ([]byte, error) {
	return json.Marshal(p)
}

// DecodeFacts parses a .vetx facts payload. Empty input (the facts file
// cmd/go requires even for factless packages) decodes to nil.
func DecodeFacts(data []byte) (*PackageFacts, error) {
	if len(data) == 0 {
		return nil, nil
	}
	p := &PackageFacts{}
	if err := json.Unmarshal(data, p); err != nil {
		return nil, err
	}
	return p, nil
}
