package sim

import (
	"reflect"
	"strings"
	"testing"
)

func TestAccuracyArithmetic(t *testing.T) {
	a := Accuracy{TruePositive: 8, FalsePositive: 2, FalseNegative: 2}
	if got := a.Precision(); got != 0.8 {
		t.Fatalf("Precision = %v", got)
	}
	if got := a.Recall(); got != 0.8 {
		t.Fatalf("Recall = %v", got)
	}
	var empty Accuracy
	if empty.Precision() != 0 || empty.Recall() != 0 {
		t.Fatal("empty accuracy not zero")
	}
}

func TestClassifierAccuracyOnMigratoryWorkload(t *testing.T) {
	opts := testOpts("MP3D")
	rows, err := ClassifierAccuracy("MP3D", opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // conservative, basic, aggressive
		t.Fatalf("rows = %d", len(rows))
	}
	for _, a := range rows {
		if a.TotalBlocks == 0 || a.MigratoryBlocks == 0 {
			t.Fatalf("%s: empty scoring: %+v", a.Policy.Name, a)
		}
		// MP3D is overwhelmingly migratory and the rules are designed for
		// exactly this pattern: recall should be high for every variant.
		if r := a.Recall(); r < 0.7 {
			t.Errorf("%s recall = %.2f; want >= 0.7", a.Policy.Name, r)
		}
		if p := a.Precision(); p < 0.7 {
			t.Errorf("%s precision = %.2f; want >= 0.7", a.Policy.Name, p)
		}
		if a.TruePositive+a.FalsePositive+a.FalseNegative+a.TrueNegative != a.TotalBlocks {
			t.Errorf("%s: confusion matrix does not sum: %+v", a.Policy.Name, a)
		}
	}
	// More aggressive variants detect at least as much (recall ordering).
	if rows[0].Recall() > rows[1].Recall()+0.02 {
		t.Errorf("conservative recall %.2f above basic %.2f", rows[0].Recall(), rows[1].Recall())
	}
	out := RenderAccuracy(rows).String()
	for _, want := range []string{"precision", "recall", "basic", "aggressive"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestClassifierAccuracyUnknownApp(t *testing.T) {
	if _, err := ClassifierAccuracy("nope", testOpts(), 0); err == nil {
		t.Fatal("unknown app accepted")
	}
}

// TestClassifierAccuracyAppsMatchesPerApp pins the one-pool accuracy
// section: scoring several apps in one call, with their cells sharing a
// pool, returns exactly the rows of one sequential call per app, in app
// order.
func TestClassifierAccuracyAppsMatchesPerApp(t *testing.T) {
	opts := testOpts("MP3D", "Water", "Cholesky")
	opts.Length = 20_000
	apps, err := PrepareApps(opts)
	if err != nil {
		t.Fatal(err)
	}
	var want []Accuracy
	for _, app := range apps {
		rows, err := ClassifierAccuracyApp(app, withParallelism(opts, 1), 4<<10)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, rows...)
	}
	got, err := ClassifierAccuracyApps(apps, withParallelism(opts, 4), 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("one pool = %+v\nper app = %+v", got, want)
	}
}
