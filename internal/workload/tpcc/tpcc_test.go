package tpcc

import (
	"testing"
	"time"

	"statefulentities.dev/stateflow/internal/compiler"
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/runtime/local"
	"statefulentities.dev/stateflow/internal/sim"
	sfsys "statefulentities.dev/stateflow/internal/systems/stateflow"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
)

func TestProgramCompiles(t *testing.T) {
	prog, err := compiler.Compile(Program())
	if err != nil {
		t.Fatalf("TPC-C program must compile: %v", err)
	}
	no := prog.MethodOf("District", "new_order")
	if no == nil || no.Simple {
		t.Fatal("new_order must be split (loop of remote calls)")
	}
	if !no.Transactional {
		t.Fatal("new_order must be transactional")
	}
}

func newLocal(t *testing.T, scale Scale) *local.Runtime {
	t.Helper()
	prog, err := compiler.Compile(Program())
	if err != nil {
		t.Fatal(err)
	}
	rt := local.New(prog)
	err = scale.Load(func(class string, args []interp.Value) error {
		_, err := rt.Create(class, args...)
		return err
	})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return rt
}

func TestNewOrderLocal(t *testing.T) {
	scale := Scale{Warehouses: 2, DistrictsPerWH: 4, CustomersPerDist: 20, Items: 100}
	rt := newLocal(t, scale)
	res, err := rt.Invoke("District", DistrictKey(0, 0), "new_order",
		interp.RefV("Customer", CustomerKey(0, 0, 0)),
		interp.RefV("Warehouse", WarehouseKey(0)),
		interp.ListV(interp.RefV("Stock", StockKey(0, 1)), interp.RefV("Stock", StockKey(0, 2))),
		interp.ListV(interp.IntV(3), interp.IntV(2)),
	)
	if err != nil || res.Err != "" {
		t.Fatalf("new_order: %v %s", err, res.Err)
	}
	if res.Value.I != 1 {
		t.Fatalf("first order id: %v", res.Value)
	}
	// Stock decremented.
	st, _ := rt.State("Stock", StockKey(0, 1))
	if st["quantity"].I != 97 {
		t.Fatalf("stock quantity: %d", st["quantity"].I)
	}
	// Customer charged: item1 price 11*3 + item2 price 12*2 = 57; taxes
	// (w tax 1 + d tax 1) -> total = 57 + 57*2//100 = 58.
	cust, _ := rt.State("Customer", CustomerKey(0, 0, 0))
	if cust["balance"].I != -58 {
		t.Fatalf("customer balance: %d", cust["balance"].I)
	}
	// Next order id advanced.
	d, _ := rt.State("District", DistrictKey(0, 0))
	if d["next_o_id"].I != 2 {
		t.Fatalf("next_o_id: %d", d["next_o_id"].I)
	}
}

func TestPaymentLocal(t *testing.T) {
	scale := Scale{Warehouses: 2, DistrictsPerWH: 4, CustomersPerDist: 20, Items: 100}
	rt := newLocal(t, scale)
	res, err := rt.Invoke("District", DistrictKey(1, 2), "payment",
		interp.RefV("Customer", CustomerKey(1, 2, 3)),
		interp.RefV("Warehouse", WarehouseKey(1)),
		interp.IntV(500),
	)
	if err != nil || res.Err != "" {
		t.Fatalf("payment: %v %s", err, res.Err)
	}
	w, _ := rt.State("Warehouse", WarehouseKey(1))
	if w["ytd"].I != 500 {
		t.Fatalf("warehouse ytd: %d", w["ytd"].I)
	}
	d, _ := rt.State("District", DistrictKey(1, 2))
	if d["ytd"].I != 500 {
		t.Fatalf("district ytd: %d", d["ytd"].I)
	}
	c, _ := rt.State("Customer", CustomerKey(1, 2, 3))
	if c["balance"].I != 500 || c["payment_cnt"].I != 1 {
		t.Fatalf("customer: %v", c)
	}
}

func TestStockRefillKeepsInvariant(t *testing.T) {
	scale := Scale{Warehouses: 1, DistrictsPerWH: 1, CustomersPerDist: 1, Items: 3}
	rt := newLocal(t, scale)
	// Drain stock repeatedly; TPC-C's refill rule keeps quantity positive.
	for i := 0; i < 40; i++ {
		res, err := rt.Invoke("Stock", StockKey(0, 0), "take", interp.IntV(5))
		if err != nil || res.Err != "" {
			t.Fatalf("take: %v %s", err, res.Err)
		}
	}
	st, _ := rt.State("Stock", StockKey(0, 0))
	if st["quantity"].I < 0 {
		t.Fatalf("stock went negative: %d", st["quantity"].I)
	}
	if st["order_cnt"].I != 40 {
		t.Fatalf("order_cnt: %d", st["order_cnt"].I)
	}
}

func TestGeneratorDeterministicAndWellFormed(t *testing.T) {
	scale := Scale{Warehouses: 2, DistrictsPerWH: 4, CustomersPerDist: 20, Items: 100}
	g1 := NewGenerator(scale, 5, "x")
	g2 := NewGenerator(scale, 5, "x")
	for i := 0; i < 200; i++ {
		a, b := g1.Next(i), g2.Next(i)
		if a.Req != b.Req || a.Method != b.Method || a.Target != b.Target {
			t.Fatal("generator not deterministic")
		}
		// Arguments included: an order's lines come in draw order.
		if ra, rb := interp.ListV(a.Args...).Repr(), interp.ListV(b.Args...).Repr(); ra != rb {
			t.Fatalf("request %d: same seed rendered %s, then %s", i, ra, rb)
		}
		if a.Method == "new_order" {
			stocks := a.Args[2].L.Elems
			qtys := a.Args[3].L.Elems
			if len(stocks) != len(qtys) || len(stocks) < 2 || len(stocks) > 5 {
				t.Fatalf("order lines: %d/%d", len(stocks), len(qtys))
			}
		}
	}
}

// TestTPCCOnStateFlow runs the mix transactionally and checks the money
// invariant: every committed payment's amount lands in warehouse ytd,
// district ytd and customer ytd exactly once.
func TestTPCCOnStateFlow(t *testing.T) {
	prog, err := compiler.Compile(Program())
	if err != nil {
		t.Fatal(err)
	}
	scale := Scale{Warehouses: 2, DistrictsPerWH: 2, CustomersPerDist: 5, Items: 20}
	cluster := sim.New(11)
	cfg := sfsys.DefaultConfig()
	sys := sfsys.New(cluster, prog, cfg)
	err = scale.Load(func(class string, args []interp.Value) error {
		return sys.PreloadEntity(class, args...)
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.CheckpointPreloadedState()

	gen := NewGenerator(scale, 6, "t")
	var script []sysapi.Scheduled
	n := 60
	for i := 0; i < n; i++ {
		script = append(script, sysapi.Scheduled{
			At:  time.Duration(i+1) * 2 * time.Millisecond,
			Req: gen.Next(i),
		})
	}
	client := sysapi.NewScriptClient("client", sys, script)
	cluster.Add("client", client)
	cluster.Start()
	cluster.RunUntil(10 * time.Second)

	if client.Done != n {
		t.Fatalf("responses: %d/%d", client.Done, n)
	}
	var wantPayments int64
	replay := NewGenerator(scale, 6, "t") // fresh rng, same seed
	for i := 0; i < n; i++ {
		req := replay.Next(i)
		if req.Method == "payment" {
			if resp, ok := client.Responses[req.Req]; ok && resp.Err == "" {
				wantPayments += req.Args[2].I
			}
		}
	}
	var wytd, dytd, cytd int64
	for w := 0; w < scale.Warehouses; w++ {
		st, ok := sys.EntityState("Warehouse", WarehouseKey(w))
		if !ok {
			t.Fatalf("warehouse %d missing", w)
		}
		wytd += st["ytd"].I
		for d := 0; d < scale.DistrictsPerWH; d++ {
			ds, _ := sys.EntityState("District", DistrictKey(w, d))
			dytd += ds["ytd"].I
			for c := 0; c < scale.CustomersPerDist; c++ {
				cs, _ := sys.EntityState("Customer", CustomerKey(w, d, c))
				cytd += cs["ytd_payment"].I
			}
		}
	}
	if wytd != wantPayments || dytd != wantPayments || cytd != wantPayments {
		t.Fatalf("payment atomicity broken: want %d, w=%d d=%d c=%d",
			wantPayments, wytd, dytd, cytd)
	}
}
