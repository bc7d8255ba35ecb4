package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/proxy"
	"repro/internal/sqldb"
	"repro/internal/store/single"
	"repro/internal/workload/tpcc"
)

// tinyScale keeps the smoke test to seconds while exercising the same
// paths: the olap fact table is still about three times the cache.
var tinyScale = scale{
	tpcc: tpcc.Config{Warehouses: 1, Districts: 2, Customers: 10, Orders: 10, Items: 20},
	olap: olapScale{facts: 2000, dims: 100, groups: 10, cats: 5, payload: 48, batch: 20, cacheBytes: 160 << 10},
}

// TestSmoke runs every workload untraced and traced at tiny scale and
// checks that every check passes and every metric is printed by name.
func TestSmoke(t *testing.T) {
	names := workloadNames()
	if len(names) != 4 {
		t.Fatalf("workloads %v, want 4", names)
	}
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			res, err := run(runConfig{
				workload: workloads[name], scale: tinyScale, seed: 3, seconds: 0.3,
				traced: traced, setups: 1, work: t.TempDir(), out: &out,
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.correct || res.failed != 0 || res.attempted < 1 {
				t.Fatalf("%s traced=%v: correct=%v failed=%d attempted=%d\n%s", name, traced, res.correct, res.failed, res.attempted, out.String())
			}
			var want []string
			if traced {
				for _, m := range perLayer {
					want = append(want, m.name)
				}
			} else {
				for _, m := range endToEnd {
					want = append(want, m.name)
				}
			}
			if len(res.metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.metrics), len(want))
			}
			printed := out.String()
			for _, n := range append(want, "failed_ratio") {
				if !strings.Contains(printed, "\n"+n+" ") && !strings.HasPrefix(printed, n+" ") {
					t.Errorf("%s traced=%v: metric %s not printed", name, traced, n)
				}
			}
			if !traced {
				for _, m := range endToEnd {
					if v := res.metrics[m.name].Value; v <= 0 {
						t.Errorf("%s: %s = %v, want > 0", name, m.name, v)
					}
				}
			}
		}
	}
}

// benchmarkFile mirrors the parts of BENCHMARK.json the catalog defines.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the metric
// catalog the program prints from in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, w := range bf.Workloads {
		got = append(got, w.Name)
	}
	sort.Strings(got)
	if strings.Join(got, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", got, workloadNames())
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		j := bf.EndToEnd[i]
		if j.Name != m.name || j.Unit != m.unit || j.Better != m.better || j.Bound != m.bound {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, j, m)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		j := bf.PerLayer[i]
		if j.Name != m.name || j.Unit != m.unit || j.Better != m.better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, j, m)
		}
	}
}

// TestFindPlaintext checks the confinement scan both ways: a probe stored
// as plaintext is found, and the same probe written through the proxy is
// not.
func TestFindPlaintext(t *testing.T) {
	const probe = "confinement-probe-0123456789"
	row := sqldb.Text("<" + probe + ">")

	plain := single.New(sqldb.New())
	if _, err := plain.ExecSQL("CREATE TABLE t (s TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := plain.ExecSQL("INSERT INTO t (s) VALUES (?)", row); err != nil {
		t.Fatal(err)
	}
	if err := findPlaintext(plain, []string{probe}); err == nil {
		t.Error("plaintext stored by the engine was not found")
	}

	eng := single.New(sqldb.New())
	px, err := proxy.NewOnEngine(eng, proxy.Options{HOMBits: 256})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := px.Execute("CREATE TABLE t (s TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := px.Execute("INSERT INTO t (s) VALUES (?)", row); err != nil {
		t.Fatal(err)
	}
	if err := findPlaintext(eng, []string{probe}); err != nil {
		t.Error(err)
	}
}
