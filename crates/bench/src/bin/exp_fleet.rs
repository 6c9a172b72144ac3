//! Fleet resilience sweep: replica count × dispatch policy × kill
//! schedule for the `sf-serve` replica fleet under the seeded
//! chaos engine. Prints the table recorded in `results/bench.txt`.

fn main() {
    let scale = sf_bench::scale_from_args();
    let result = sf_bench::experiments::fleet::run(scale);
    println!("{}", sf_bench::experiments::fleet::render(&result));
}
