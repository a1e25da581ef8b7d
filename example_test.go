package bulkgcd_test

import (
	"context"
	"fmt"
	"math/big"

	"bulkgcd"
)

// ExampleGCD computes one GCD with the paper's Approximate Euclidean
// algorithm, on the running example of Tables I-III.
func ExampleGCD() {
	x := big.NewInt(1043915) // 1111,1110,1101,1100,1011
	y := big.NewInt(768955)  // 1011,1011,1011,1011,1011
	fmt.Println(bulkgcd.GCD(x, y))
	// Output: 5
}

// ExampleGCDWith selects a specific algorithm and inspects the iteration
// statistics the paper's Table IV reports.
func ExampleGCDWith() {
	x := big.NewInt(1043915)
	y := big.NewInt(768955)
	for _, alg := range []bulkgcd.Algorithm{bulkgcd.Binary, bulkgcd.Approximate} {
		g, st, err := bulkgcd.GCDWith(alg, x, y)
		if err != nil {
			panic(err)
		}
		fmt.Printf("(%s) %s: gcd %v in %d iterations\n", alg.Letter(), alg, g, st.Iterations)
	}
	// Output:
	// (C) Binary: gcd 5 in 24 iterations
	// (E) Approximate: gcd 5 in 8 iterations
}

// ExampleAttack_Run runs the weak-key attack over a small corpus with
// one planted shared prime.
func ExampleAttack_Run() {
	moduli, planted, err := bulkgcd.GenerateWeakCorpus(8, 128, 1, 4)
	if err != nil {
		panic(err)
	}
	report, err := bulkgcd.New().Run(context.Background(), moduli)
	if err != nil {
		panic(err)
	}
	for _, bk := range report.Broken {
		fmt.Printf("broke key %d (pair with %d), private exponent recovered: %v\n",
			bk.Index, bk.FoundWith, bk.D != nil)
	}
	fmt.Println("planted pair:", planted[0].I, planted[0].J)
	// Output:
	// broke key 5 (pair with 6), private exponent recovered: true
	// broke key 6 (pair with 5), private exponent recovered: true
	// planted pair: 5 6
}
