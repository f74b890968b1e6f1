// Compiled-program artifacts: a portable on-disk form of the IR. Because
// the dataflow graph embeds AST nodes, the artifact stores the program
// source plus the IR's structural metadata; loading re-runs the (fast,
// deterministic) pipeline and cross-checks the result against the stored
// metadata, so a stale artifact compiled by a different version is
// rejected instead of silently diverging. This is what makes applications
// deployable to a runtime without shipping the compiler invocation (§3:
// compile once, deploy to any engine).
package compiler

import (
	"encoding/json"
	"fmt"

	"statefulentities.dev/stateflow/internal/ir"
)

// artifactVersion guards the on-disk format.
const artifactVersion = 1

// artifact is the serialized form.
type artifact struct {
	Version int    `json:"version"`
	Source  string `json:"source"`
	// Fingerprint pins the expected compilation result.
	Fingerprint fingerprint `json:"fingerprint"`
}

type fingerprint struct {
	Operators   int `json:"operators"`
	Methods     int `json:"methods"`
	Blocks      int `json:"blocks"`
	Transitions int `json:"transitions"`
	Edges       int `json:"edges"`
}

func fingerprintOf(p *ir.Program) fingerprint {
	st := p.Stats()
	return fingerprint{
		Operators:   st.Operators,
		Methods:     st.Methods,
		Blocks:      st.Blocks,
		Transitions: st.Transitions,
		Edges:       st.Edges,
	}
}

// SaveArtifact serializes a compiled program. The program must have been
// produced by Compile (it needs the embedded source).
func SaveArtifact(p *ir.Program) ([]byte, error) {
	if p.Source == "" {
		return nil, fmt.Errorf("compiler: program has no embedded source; compile with Compile")
	}
	return json.MarshalIndent(artifact{
		Version:     artifactVersion,
		Source:      p.Source,
		Fingerprint: fingerprintOf(p),
	}, "", "  ")
}

// LoadArtifact recompiles a saved artifact and verifies it matches the
// fingerprint recorded at save time.
func LoadArtifact(data []byte) (*ir.Program, error) {
	var a artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("compiler: malformed artifact: %w", err)
	}
	if a.Version != artifactVersion {
		return nil, fmt.Errorf("compiler: artifact version %d not supported (want %d)", a.Version, artifactVersion)
	}
	if a.Source == "" {
		return nil, fmt.Errorf("compiler: artifact has no source")
	}
	prog, err := Compile(a.Source)
	if err != nil {
		return nil, fmt.Errorf("compiler: artifact source no longer compiles: %w", err)
	}
	if got := fingerprintOf(prog); got != a.Fingerprint {
		return nil, fmt.Errorf("compiler: artifact fingerprint mismatch: compiled %+v, recorded %+v", got, a.Fingerprint)
	}
	return prog, nil
}
