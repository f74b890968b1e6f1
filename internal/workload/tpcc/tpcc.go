// Package tpcc implements the TPC-C subset the paper reports StateFlow can
// "partly" execute (§3): the NewOrder and Payment transactions over
// stateful entities. Warehouses, districts, customers and stock records
// are entities partitioned by composite keys; NewOrder iterates over the
// ordered items (a split for-loop of remote calls), and Payment updates
// warehouse, district and customer year-to-date totals atomically.
package tpcc

import (
	"fmt"
	"math/rand"

	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
)

// Program returns the DSL source of the TPC-C entity schema and
// transactions.
func Program() string {
	return `
@entity
class Warehouse:
    def __init__(self, w_id: str, tax: int):
        self.w_id: str = w_id
        self.tax: int = tax
        self.ytd: int = 0

    def __key__(self) -> str:
        return self.w_id

    def add_ytd(self, amount: int) -> int:
        self.ytd += amount
        return self.ytd

    def get_tax(self) -> int:
        return self.tax

@entity
class Stock:
    def __init__(self, s_key: str, quantity: int, price: int):
        self.s_key: str = s_key
        self.quantity: int = quantity
        self.price: int = price
        self.order_cnt: int = 0

    def __key__(self) -> str:
        return self.s_key

    def take(self, qty: int) -> int:
        if self.quantity < qty + 10:
            self.quantity += 91
        self.quantity -= qty
        self.order_cnt += 1
        return self.price * qty

@entity
class Customer:
    def __init__(self, c_key: str, credit: int):
        self.c_key: str = c_key
        self.balance: int = 0
        self.credit: int = credit
        self.ytd_payment: int = 0
        self.payment_cnt: int = 0

    def __key__(self) -> str:
        return self.c_key

    def charge(self, amount: int) -> int:
        self.balance -= amount
        return self.balance

    def pay(self, amount: int) -> int:
        self.balance += amount
        self.ytd_payment += amount
        self.payment_cnt += 1
        return self.balance

@entity
class District:
    def __init__(self, d_key: str, tax: int):
        self.d_key: str = d_key
        self.tax: int = tax
        self.ytd: int = 0
        self.next_o_id: int = 1

    def __key__(self) -> str:
        return self.d_key

    def add_ytd(self, amount: int) -> int:
        self.ytd += amount
        return self.ytd

    @transactional
    def new_order(self, customer: Customer, warehouse: Warehouse, stocks: list[Stock], quantities: list[int]) -> int:
        o_id: int = self.next_o_id
        self.next_o_id += 1
        total: int = 0
        i: int = 0
        for s in stocks:
            total += s.take(quantities[i])
            i += 1
        w_tax: int = warehouse.get_tax()
        total = total + total * (w_tax + self.tax) // 100
        customer.charge(total)
        return o_id

    @transactional
    def payment(self, customer: Customer, warehouse: Warehouse, amount: int) -> int:
        self.ytd += amount
        warehouse.add_ytd(amount)
        return customer.pay(amount)
`
}

// Scale configures dataset sizes (scaled down from TPC-C's nominal
// counts to keep simulations quick).
type Scale struct {
	Warehouses       int
	DistrictsPerWH   int
	CustomersPerDist int
	Items            int
}

// Key builders for the composite-keyed entities.
func WarehouseKey(w int) string      { return fmt.Sprintf("w%d", w) }
func DistrictKey(w, d int) string    { return fmt.Sprintf("w%d-d%d", w, d) }
func CustomerKey(w, d, c int) string { return fmt.Sprintf("w%d-d%d-c%d", w, d, c) }
func StockKey(w, i int) string       { return fmt.Sprintf("w%d-i%d", w, i) }

// Load enumerates every entity to preload: it invokes fn with the class
// name and constructor args for each record.
func (s Scale) Load(fn func(class string, args []interp.Value) error) error {
	for w := 0; w < s.Warehouses; w++ {
		if err := fn("Warehouse", []interp.Value{
			interp.StrV(WarehouseKey(w)), interp.IntV(int64(w%5 + 1)),
		}); err != nil {
			return err
		}
		for i := 0; i < s.Items; i++ {
			if err := fn("Stock", []interp.Value{
				interp.StrV(StockKey(w, i)), interp.IntV(100), interp.IntV(int64(i%90 + 10)),
			}); err != nil {
				return err
			}
		}
		for d := 0; d < s.DistrictsPerWH; d++ {
			if err := fn("District", []interp.Value{
				interp.StrV(DistrictKey(w, d)), interp.IntV(int64(d%3 + 1)),
			}); err != nil {
				return err
			}
			for c := 0; c < s.CustomersPerDist; c++ {
				if err := fn("Customer", []interp.Value{
					interp.StrV(CustomerKey(w, d, c)), interp.IntV(50_000),
				}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Generator draws NewOrder/Payment transactions with TPC-C's approximate
// mix (~45% NewOrder, ~43% Payment; the remainder here folds into
// Payment).
type Generator struct {
	scale Scale
	rng   *rand.Rand
	reqs  *sysapi.Builder
}

// NewGenerator builds a deterministic TPC-C request generator.
func NewGenerator(scale Scale, seed int64, prefix string) *Generator {
	return &Generator{scale: scale, rng: rand.New(rand.NewSource(seed)), reqs: sysapi.NewBuilder(prefix)}
}

// Next produces the i-th transaction request.
func (g *Generator) Next(i int) sysapi.Request {
	w := g.rng.Intn(g.scale.Warehouses)
	d := g.rng.Intn(g.scale.DistrictsPerWH)
	c := g.rng.Intn(g.scale.CustomersPerDist)
	target := interp.EntityRef{Class: "District", Key: DistrictKey(w, d)}
	if g.rng.Intn(100) < 45 {
		// NewOrder: 2-5 distinct items, listed in draw order (ranging over
		// a set would make the request stream differ from run to run).
		n := 2 + g.rng.Intn(4)
		seen := map[int]bool{}
		var stocks, qtys []interp.Value
		for len(stocks) < n {
			it := g.rng.Intn(g.scale.Items)
			if seen[it] {
				continue
			}
			seen[it] = true
			stocks = append(stocks, interp.RefV("Stock", StockKey(w, it)))
			qtys = append(qtys, interp.IntV(int64(1+g.rng.Intn(5))))
		}
		return g.reqs.At(i, target, "new_order", []interp.Value{
			interp.RefV("Customer", CustomerKey(w, d, c)),
			interp.RefV("Warehouse", WarehouseKey(w)),
			interp.ListV(stocks...),
			interp.ListV(qtys...),
		}, "new_order")
	}
	return g.reqs.At(i, target, "payment", []interp.Value{
		interp.RefV("Customer", CustomerKey(w, d, c)),
		interp.RefV("Warehouse", WarehouseKey(w)),
		interp.IntV(int64(1 + g.rng.Intn(5000))),
	}, "payment")
}
