package main

import (
	"fmt"

	"statefulentities.dev/stateflow/internal/compiler"
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/runtime/local"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
	"statefulentities.dev/stateflow/internal/workload/ycsb"
)

// reference replays a request list through the single-threaded Local
// runtime and returns every account's final balance. Reads, updates and
// transfers are additive (balances start at 1 000 000 and no transfer can
// overdraw), so the result does not depend on the order the distributed
// runtime serialised them in. Rows carry no payload: balances do not
// depend on it.
func reference(records int, reqs []sysapi.Request) (map[string]int64, error) {
	prog, err := compiler.Compile(ycsb.Program())
	if err != nil {
		return nil, err
	}
	rt := local.New(prog)
	load := ycsb.Loader(records, 0)
	for i := 0; i < records; i++ {
		class, args := load(i)
		if err := rt.PreloadEntity(class, args...); err != nil {
			return nil, err
		}
	}
	for _, req := range reqs {
		res, err := rt.Invoke(req.Target.Class, req.Target.Key, req.Method, req.Args...)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", req.Req, err)
		}
		if res.Err != "" {
			return nil, fmt.Errorf("reference %s: %s", req.Req, res.Err)
		}
	}
	want := make(map[string]int64, records)
	for i := 0; i < records; i++ {
		key := ycsb.Key(i)
		st, ok := rt.State("Account", key)
		if !ok {
			return nil, fmt.Errorf("reference: account %s missing", key)
		}
		want[key] = st["balance"].I
	}
	return want, nil
}

// touches lists the accounts a request reads or writes.
func touches(req sysapi.Request) []string {
	keys := []string{req.Target.Key}
	for _, a := range req.Args {
		if a.Kind == interp.KRef {
			keys = append(keys, a.R.Key)
		}
	}
	return keys
}

// checkSlice is the correctness oracle run after every slice. It compares
// each account's committed balance with the reference, and checks
// conservation of the total, one recorded response per submitted request
// and zero Err responses. It returns per request whether a check failed
// it — every request touching an account whose balance is wrong — and a
// description of each violated check (empty when the slice is correct).
func (d *deployment) checkSlice(want map[string]int64) (failed []bool, problems []string) {
	failed = make([]bool, len(d.rec.reqs))
	wrong := map[string]bool{}
	var total, wantTotal int64
	for i := 0; i < d.w.Records; i++ {
		key := ycsb.Key(i)
		st, ok := d.sys.EntityState("Account", key)
		got := st["balance"].I
		total += got
		wantTotal += want[key]
		if !ok || got != want[key] {
			wrong[key] = true
			if len(wrong) <= 3 {
				problems = append(problems, fmt.Sprintf("account %s: balance %d, reference %d", key, got, want[key]))
			}
		}
	}
	if len(wrong) > 3 {
		problems = append(problems, fmt.Sprintf("%d accounts differ from the reference", len(wrong)))
	}
	// Updates change the total; transfers must not. The reference total
	// already includes the updates, so equality is conservation.
	if total != wantTotal {
		problems = append(problems, fmt.Sprintf("total balance %d, reference %d", total, wantTotal))
	}
	if len(wrong) > 0 {
		for i, req := range d.rec.reqs {
			for _, key := range touches(req) {
				if wrong[key] {
					failed[i] = true
				}
			}
		}
	}
	if d.gen.Submitted != d.gen.Done {
		problems = append(problems, fmt.Sprintf("submitted %d requests, %d answered", d.gen.Submitted, d.gen.Done))
	}
	if d.gen.Errors != 0 {
		problems = append(problems, fmt.Sprintf("%d Err responses", d.gen.Errors))
	}
	bad := 0
	for _, b := range d.rec.bad {
		if b {
			bad++
		}
	}
	if bad != d.gen.Errors {
		problems = append(problems, fmt.Sprintf("%d transfers refused", bad-d.gen.Errors))
	}
	return failed, problems
}
