package cliconfig

import (
	"flag"
	"io"
	"reflect"
	"testing"

	"netmaster/internal/cfgerr"
)

// optionSet is what every binary's options struct provides.
type optionSet interface{ Register(*flag.FlagSet) }

func ptr[T any](v T) *T { return &v }

// TestRegisterKeepsDefaults: for every option set, registering on a
// fresh FlagSet and parsing no arguments leaves exactly the Default*()
// values, so a flag's default can never drift from the struct's.
func TestRegisterKeepsDefaults(t *testing.T) {
	cases := []struct {
		name string
		opts optionSet
		want any
	}{
		{"sim", ptr(DefaultSim()), DefaultSim()},
		{"experiments", ptr(DefaultExperiments()), DefaultExperiments()},
		{"analyze", ptr(DefaultAnalyze()), DefaultAnalyze()},
		{"serve", ptr(DefaultServe()), DefaultServe()},
		{"bench", ptr(DefaultBench()), DefaultBench()},
		{"tracegen", ptr(DefaultTracegen()), DefaultTracegen()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet(tc.name, flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			tc.opts.Register(fs)
			if err := fs.Parse(nil); err != nil {
				t.Fatal(err)
			}
			if got := reflect.ValueOf(tc.opts).Elem().Interface(); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("after parsing no flags:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

// TestRegisterBindsFlags: a parsed flag lands in its field, including
// the embedded shared -wifi-* pair.
func TestRegisterBindsFlags(t *testing.T) {
	o := DefaultSim()
	fs := flag.NewFlagSet("sim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o.Register(fs)
	if err := fs.Parse([]string{"-days", "3", "-model", "lte", "-wifi-coverage", "0.5"}); err != nil {
		t.Fatal(err)
	}
	if o.Days != 3 || o.ModelName != "lte" || o.WiFiCoverage != 0.5 {
		t.Errorf("parsed options %+v", o)
	}
}

func TestBackendList(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"http://a", []string{"http://a"}},
		{"http://a,http://b,", []string{"http://a", "http://b"}},
		{" http://a , ,\t,http://b ,,  ", []string{"http://a", "http://b"}},
		{" , ", nil},
	}
	for _, tc := range cases {
		o := Serve{Backends: tc.in}
		if got := o.BackendList(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("BackendList(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestResolve(t *testing.T) {
	for _, name := range []string{"3g", "lte"} {
		if m, err := ResolveModel(name); err != nil || m == nil {
			t.Errorf("ResolveModel(%q) = %v, %v", name, m, err)
		}
	}
	if _, err := ResolveModel("5g"); err == nil {
		t.Error("ResolveModel(5g) accepted an unknown model")
	}
	if m, err := (&WiFi{}).Resolve(); err != nil || m != nil {
		t.Errorf("empty WiFi resolves to (%v, %v), want cellular-only", m, err)
	}
	if m, err := (&WiFi{WiFiModelName: "wifi", WiFiCoverage: 0.6}).Resolve(); err != nil || m == nil {
		t.Errorf("wifi model resolves to (%v, %v)", m, err)
	}
	_, err := (&WiFi{WiFiModelName: "wimax", WiFiCoverage: 1.5}).Resolve()
	for _, field := range []string{"wifi-model", "wifi-coverage"} {
		if !cfgerr.Is(err, "cliconfig.WiFi", field) {
			t.Errorf("bad WiFi pair: error %v does not name %s", err, field)
		}
	}
}
