//! `vegen-engine` — the suite runner and every subcommand in
//! [`vegen_engine::cli::COMMANDS`] (`vegen-engine --help` lists them; all
//! logic lives in the library so tests can drive it).

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(vegen_engine::cli::main_with_args(&args));
}
