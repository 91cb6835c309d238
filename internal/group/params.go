package group

import (
	"fmt"
	"math/big"
)

// Pinned parameter sets. The Z_p* sets were produced by cmd/groupgen
// (which uses Generate with crypto/rand) and are embedded so that
// tests, benches and examples are reproducible and never pay
// parameter-generation cost at startup.
//
//   - Toy64 and Test256 are for tests and simulation benchmarks ONLY;
//     their discrete logs are tractable and they provide no security.
//   - Prod2048 provides a 2048-bit modulus with a 256-bit subgroup,
//     the conventional choice for ~112-bit security in the
//     finite-field discrete-log setting.
//   - P256 is the NIST P-256 elliptic-curve backend (~128-bit
//     security at a fraction of Prod2048's per-operation cost).

// Toy64 returns a 64-bit toy group (|q| = 32). Insecure; for fast
// property-based tests.
func Toy64() *Group {
	return mustModP("toy64",
		"862575219ef1e32d",
		"efc58ec9",
		"603f63a0c826a7fb",
	)
}

// Test256 returns a 256-bit test group (|q| = 160). Insecure; default
// for protocol tests and simulation benchmarks.
func Test256() *Group {
	return mustModP("test256",
		"a26697c7b21733b464c31b4119abfb400c498b2a601b375edc0457f91f686d75",
		"a94fdcc30dfba2937d92a4afdb84185a5da2a0d5",
		"8bddd1e4615bcdd9e9a2338489ea9dcaf5459d44a71ded19cee5d9b3e05e2db2",
	)
}

// Test512 returns a 512-bit test group (|q| = 192). Insecure; used by
// benchmarks that want costs closer to realistic parameters while
// staying fast enough for sweeps.
func Test512() *Group {
	return mustModP("test512",
		"b8e604b02748db92f0e525907f4bb21f2404a7807c3575785cb5e100f3e8d636a031636e5d0547491385241cd185de111e189ba4d1ff08842e1e926d2116d0a3",
		"d9c3bafc568a59b8bd3d917c84bdfb7f08a5eec6f2d62641",
		"90a72b2b518e1b27d964ec8eeed9c720d3ac17097fa09faf20017eab52c119b73ef756c4a02fba7542c80797b73af715d15e0a5b8c462a7bb6fbe0d952cd7d9d",
	)
}

// Prod2048 returns a 2048-bit group with a 256-bit prime-order
// subgroup, suitable for real deployments of the protocol in the
// finite-field setting.
func Prod2048() *Group {
	return mustModP("prod2048",
		"9b4b837c2ac0f02483541d7b7fd3d032d65f5c2dcbf9c2037170d171602bacfad721f32d0d3bdba9b9d393287fa507d0344b1a3ae10397f8d1b968f0c0b2ecbd4160ab32f5d7a88f9f9e8b2daa0b2356faa27d4bbef0c4760de694e5632537ace0da13fc0ce0435ba2e380b1fad5adb6617f9f4ac699c51937b44945ebf153ade0cd725c5a3f8e417d4bd4bc0f34d79c41bc4e9a94eba5ba71c7f9d74f38c85791a2c0a75ac058e231ea90f04b3917b5245ddb431e0ee7018b0e1a50818e86cd4670bec4e08f5ea465bef6fbcf4eb7b6fcd05f8d40adfcdb77d0d4951368b03fbec78d64c832a8088207e7b7246075db8848afae5e7bb2c0cf5837d5dd3321c1",
		"9c84774703ebff22836c45953452949a8c9b123570daa8545561679ae209718b",
		"435c0b46e453bad8111484b92675f03f883ffa5df571b02dd1eba9f1bb6f5d0e44696ff53657bc5ffd963ba2f1b47a4d5d52b2449e8f96a48aa3d93a2a16eca414f675232d4bf00beb349689c80d6382ef8ee42fd57145270707b0c70218d02a77ab4203bacf59a4cc780743d3d178923d920aec3d0c07f47ca0975e6925f4da3b5495cc5bec7b00e1251f3bc5bbc256eeb518768708fec0bb1c79b64349c559a970b0aa895ec641c4f830e59d893dc46a423593f49c15e1b34b9f63609bb5595a9ac2b165d840e321e1576a4415c4eddc1344905b90fbec98f16bf3759c6a3418a45e9e4553007c0e94f1f3e4ea42e908eb6b6d21b04a1a4a54c46b7673d5a1",
	)
}

// P256 returns the NIST P-256 elliptic-curve group.
func P256() *Group { return FromBackend(NewP256()) }

// ByName resolves a pinned parameter set by name ("toy64", "test256",
// "test512", "prod2048", "p256"). It is used by command-line tools, the
// harness and the benchmark rig; the façade serves P256 alone.
func ByName(name string) (*Group, error) {
	switch name {
	case "toy64":
		return Toy64(), nil
	case "test256":
		return Test256(), nil
	case "test512":
		return Test512(), nil
	case "prod2048":
		return Prod2048(), nil
	case "p256":
		return P256(), nil
	default:
		return nil, fmt.Errorf("%w: unknown parameter set %q", ErrBadParams, name)
	}
}

// Names lists every registered parameter set, in cost order. The
// conformance suite iterates this so new backends inherit the whole
// test battery.
func Names() []string {
	return []string{"toy64", "test256", "test512", "prod2048", "p256"}
}

// mustModP builds a Z_p* Group from hex-encoded pinned constants and
// panics on corruption; the constants are compiled in, so a failure is
// a programming error, not a runtime condition.
func mustModP(name, pHex, qHex, gHex string) *Group {
	p, ok1 := new(big.Int).SetString(pHex, 16)
	q, ok2 := new(big.Int).SetString(qHex, 16)
	g, ok3 := new(big.Int).SetString(gHex, 16)
	if !ok1 || !ok2 || !ok3 {
		panic("group: corrupted pinned parameters")
	}
	b, err := NewModP(name, p, q, g)
	if err != nil {
		panic(fmt.Sprintf("group: pinned parameters rejected: %v", err))
	}
	return FromBackend(b)
}
