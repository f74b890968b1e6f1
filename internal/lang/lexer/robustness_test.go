package lexer

import (
	"math/rand"
	"testing"
	"testing/quick"

	"statefulentities.dev/stateflow/internal/lang/token"
)

// The lexer must never panic or loop forever, whatever bytes arrive: it
// either produces a token stream ending in EOF or reports a positioned
// error.

func TestTokenizeNeverPanicsOnRandomBytes(t *testing.T) {
	prop := func(raw []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		toks, err := Tokenize(string(raw))
		if err != nil {
			return true // positioned error is fine
		}
		if len(toks) == 0 || toks[len(toks)-1].Kind != token.EOF {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestTokenizeNeverPanicsOnRandomASCII(t *testing.T) {
	// ASCII soup hits the operator/indentation paths harder than random
	// UTF-8.
	alphabet := []byte(" \t\n\"'#abc01_+-*/%=<>()[]{}.,:@\\!")
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		n := r.Intn(200)
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = alphabet[r.Intn(len(alphabet))]
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panic on %q: %v", buf, p)
				}
			}()
			_, _ = Tokenize(string(buf))
		}()
	}
}

func TestTokenStreamTerminatesProperty(t *testing.T) {
	// The streaming API must reach EOF in bounded steps relative to input
	// size (no infinite NEWLINE/DEDENT loops).
	prop := func(raw []byte) bool {
		lx := New(string(raw))
		limit := len(raw)*4 + 64
		for i := 0; i < limit; i++ {
			tk := lx.Next()
			if lx.err != nil || tk.Kind == token.EOF {
				return true
			}
		}
		return false
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func TestPositionsMonotonic(t *testing.T) {
	src := "a = 1\nif a:\n    b = a + 2\n    c = \"s\"\nd = [1, 2]\n"
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	prev := token.Pos{Line: 1, Col: 0}
	for _, tk := range toks {
		if tk.Kind == token.EOF || tk.Kind == token.DEDENT ||
			tk.Kind == token.NEWLINE || tk.Kind == token.INDENT {
			continue // layout tokens share the next token's position
		}
		if tk.Pos.Line < prev.Line || (tk.Pos.Line == prev.Line && tk.Pos.Col <= prev.Col) {
			t.Fatalf("position went backwards at %v (prev %v)", tk.Pos, prev)
		}
		prev = tk.Pos
	}
}
