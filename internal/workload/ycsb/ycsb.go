// Package ycsb implements the workloads of the paper's evaluation (§4):
// YCSB workloads A (update-heavy, 50/50) and B (read-heavy, 95/5) from
// Cooper et al., the transactional workload T from YCSB+T (Dey et al.) —
// an atomic transfer between two entities' bank accounts (2 reads and 2
// writes) — and the mixed workload M (45% reads, 45% updates, 10%
// transfers) the paper defines for its throughput experiment. Keys are
// drawn from Zipfian or uniform distributions, as in the paper's latency
// experiments.
package ycsb

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
)

// Mix is an operation mix in percent (must sum to 100).
type Mix struct {
	Name     string
	Read     int
	Update   int
	Transfer int
}

// The paper's workloads (§4).
var (
	// WorkloadA is update-heavy: 50% reads, 50% updates.
	WorkloadA = Mix{Name: "A", Read: 50, Update: 50}
	// WorkloadB is read-heavy: 95% reads, 5% updates.
	WorkloadB = Mix{Name: "B", Read: 95, Update: 5}
	// WorkloadT is YCSB+T: 100% atomic transfers (2 reads + 2 writes).
	WorkloadT = Mix{Name: "T", Transfer: 100}
	// WorkloadM is the paper's mixed throughput workload.
	WorkloadM = Mix{Name: "M", Read: 45, Update: 45, Transfer: 10}
)

// ByName resolves a workload name.
func ByName(name string) (Mix, error) {
	switch strings.ToUpper(name) {
	case "A":
		return WorkloadA, nil
	case "B":
		return WorkloadB, nil
	case "T":
		return WorkloadT, nil
	case "M":
		return WorkloadM, nil
	default:
		return Mix{}, fmt.Errorf("ycsb: unknown workload %q", name)
	}
}

// ---------------------------------------------------------------------------
// Key choosers

// KeyChooser picks record indices in [0, N).
type KeyChooser interface {
	Next(r *rand.Rand) int
}

// Uniform picks keys uniformly.
type Uniform struct{ N int }

// Next implements KeyChooser.
func (u Uniform) Next(r *rand.Rand) int { return r.Intn(u.N) }

// Zipfian implements YCSB's ZipfianGenerator (Gray et al.'s algorithm)
// with the standard YCSB constant 0.99, scrambled over the key space so
// hot keys spread across partitions like YCSB's ScrambledZipfian.
type Zipfian struct {
	n         int
	theta     float64
	alpha     float64
	zetan     float64
	eta       float64
	scrambled bool
}

// NewZipfian builds a Zipfian chooser over n items with the given theta
// (YCSB default 0.99).
func NewZipfian(n int, theta float64, scrambled bool) *Zipfian {
	z := &Zipfian{n: n, theta: theta, scrambled: scrambled}
	z.zetan = zeta(n, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - zeta(2, theta)/z.zetan)
	return z
}

func zeta(n int, theta float64) float64 {
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1.0 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next implements KeyChooser.
func (z *Zipfian) Next(r *rand.Rand) int {
	u := r.Float64()
	uz := u * z.zetan
	var item int
	switch {
	case uz < 1.0:
		item = 0
	case uz < 1.0+math.Pow(0.5, z.theta):
		item = 1
	default:
		item = int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	}
	if item >= z.n {
		item = z.n - 1
	}
	if z.scrambled {
		item = int(fnv64(uint64(item)) % uint64(z.n))
	}
	return item
}

func fnv64(v uint64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	return h
}

// ChooserByName builds a chooser.
func ChooserByName(name string, n int) (KeyChooser, error) {
	switch strings.ToLower(name) {
	case "uniform":
		return Uniform{N: n}, nil
	case "zipfian":
		return NewZipfian(n, 0.99, true), nil
	default:
		return nil, fmt.Errorf("ycsb: unknown distribution %q", name)
	}
}

// ---------------------------------------------------------------------------
// Entity program

// Program returns the DSL source of the YCSB entity: an account record
// with a payload field of the given byte size (YCSB's 10x100B fields by
// default), plus the YCSB+T transfer transaction.
func Program() string {
	return `
@entity
class Account:
    def __init__(self, owner: str, balance: int, payload: str):
        self.owner: str = owner
        self.balance: int = balance
        self.payload: str = payload

    def __key__(self) -> str:
        return self.owner

    def read(self) -> int:
        return self.balance

    def update(self, amount: int) -> int:
        self.balance += amount
        return self.balance

    def deposit(self, amount: int) -> bool:
        self.balance += amount
        return True

    @transactional
    def transfer(self, amount: int, to: Account) -> bool:
        if self.balance < amount:
            return False
        self.balance -= amount
        to.deposit(amount)
        return True
`
}

// Key formats the i-th record key, YCSB-style: "user%06d". Built by hand
// because the load generator calls it once or twice per request and
// fmt.Sprintf's boxing would be billed to the system under test.
func Key(i int) string {
	var num [20]byte
	digits := strconv.AppendInt(num[:0], int64(i), 10)
	var buf [32]byte
	b := append(buf[:0], "user"...)
	width := 6
	if i < 0 {
		b, digits, width = append(b, '-'), digits[1:], width-1
	}
	for pad := width - len(digits); pad > 0; pad-- {
		b = append(b, '0')
	}
	return string(append(b, digits...))
}

// InitialBalance is each account's starting balance.
const InitialBalance = 1_000_000

// Payload builds the record payload of the requested size.
func Payload(bytes int) string {
	if bytes <= 0 {
		return ""
	}
	return strings.Repeat("x", bytes)
}

// Loader enumerates the dataset: (class, args) per record, for preloading
// into any runtime.
func Loader(records, payloadBytes int) func(i int) (string, []interp.Value) {
	payload := Payload(payloadBytes)
	return func(i int) (string, []interp.Value) {
		return "Account", []interp.Value{
			interp.StrV(Key(i)), interp.IntV(InitialBalance), interp.StrV(payload),
		}
	}
}

// Generator draws requests from a mix and a key chooser. It is
// deterministic given the seed.
type Generator struct {
	mix     Mix
	chooser KeyChooser
	rng     *rand.Rand
	reqs    *sysapi.Builder
}

// NewGenerator builds a request generator. The prefix keeps request ids
// unique across multiple generators. The key count is the chooser's, so the
// third argument, the same count, is not consulted.
func NewGenerator(mix Mix, chooser KeyChooser, _ int, seed int64, prefix string) *Generator {
	return &Generator{
		mix: mix, chooser: chooser,
		rng: rand.New(rand.NewSource(seed)), reqs: sysapi.NewBuilder(prefix),
	}
}

// Next produces the i-th request.
func (g *Generator) Next(i int) sysapi.Request {
	op := g.rng.Intn(100)
	target := interp.EntityRef{Class: "Account", Key: Key(g.chooser.Next(g.rng))}
	switch {
	case op < g.mix.Read:
		return g.reqs.At(i, target, "read", nil, "read")
	case op < g.mix.Read+g.mix.Update:
		return g.reqs.At(i, target, "update",
			[]interp.Value{interp.IntV(int64(g.rng.Intn(100) - 50))}, "update")
	default:
		// YCSB+T transfer: two distinct accounts.
		to := Key(g.chooser.Next(g.rng))
		for to == target.Key {
			to = Key(g.chooser.Next(g.rng))
		}
		return g.reqs.At(i, target, "transfer",
			[]interp.Value{interp.IntV(int64(1 + g.rng.Intn(10))), interp.RefV("Account", to)}, "transfer")
	}
}
