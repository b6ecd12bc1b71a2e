//! Program images: code, initialized data and an entry point.

use std::collections::BTreeMap;
use std::fmt;

use bugnet_types::{Addr, Word};

use crate::instr::Instr;

/// Default virtual address of the code segment.
pub const DEFAULT_CODE_BASE: u64 = 0x0040_0000;
/// Default virtual address of the data segment.
pub const DEFAULT_DATA_BASE: u64 = 0x1000_0000;
/// Default virtual address of the top of the stack (grows downwards).
pub const DEFAULT_STACK_TOP: u64 = 0x7fff_0000;

/// A contiguous run of initialized data words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataSegment {
    /// Base byte address (word aligned).
    pub base: Addr,
    /// Initial word values.
    pub words: Vec<Word>,
}

impl DataSegment {
    /// Byte length of the segment.
    pub fn len_bytes(&self) -> u64 {
        self.words.len() as u64 * 4
    }

    /// The address one past the last byte.
    pub fn end(&self) -> Addr {
        Addr::new(self.base.raw() + self.len_bytes())
    }
}

/// A complete program image for the simulated machine.
///
/// The replayer needs the *exact same binary* at the *same virtual addresses*
/// as the recorded execution (paper §5.3); keeping the image as an explicit
/// value shared by the recording run and the replay run models that
/// requirement directly.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    name: String,
    code: Vec<Instr>,
    code_base: Addr,
    entry_index: u32,
    data: Vec<DataSegment>,
    stack_top: Addr,
    symbols: BTreeMap<String, Addr>,
}

impl Program {
    /// Creates a program from raw parts.
    ///
    /// # Panics
    ///
    /// Panics if `code` is empty, `entry_index` is out of range, the code base
    /// is not word aligned, or any data segment is not word aligned.
    pub fn new(
        name: impl Into<String>,
        code: Vec<Instr>,
        code_base: Addr,
        entry_index: u32,
        data: Vec<DataSegment>,
    ) -> Self {
        assert!(!code.is_empty(), "a program needs at least one instruction");
        assert!(
            (entry_index as usize) < code.len(),
            "entry index {entry_index} out of range"
        );
        assert!(
            code_base.is_word_aligned(),
            "code base must be word aligned"
        );
        for seg in &data {
            assert!(
                seg.base.is_word_aligned(),
                "data segment must be word aligned"
            );
        }
        Program {
            name: name.into(),
            code,
            code_base,
            entry_index,
            data,
            stack_top: Addr::new(DEFAULT_STACK_TOP),
            symbols: BTreeMap::new(),
        }
    }

    /// Human-readable program name (used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instruction sequence.
    pub fn code(&self) -> &[Instr] {
        &self.code
    }

    /// Virtual address where the code segment is mapped.
    pub fn code_base(&self) -> Addr {
        self.code_base
    }

    /// Entry point as an instruction index.
    pub fn entry_index(&self) -> u32 {
        self.entry_index
    }

    /// Entry point as a byte address.
    pub fn entry_pc(&self) -> Addr {
        self.pc_of_index(self.entry_index)
    }

    /// Initialized data segments.
    pub fn data(&self) -> &[DataSegment] {
        &self.data
    }

    /// The replay image of this program: the same name, code, code base,
    /// entry point, stack top and symbols, with no data segments.
    ///
    /// Replay starts every interval from empty memory and takes each first
    /// load from the First-Load Log (paper §4.8), so it never reads
    /// initialized data; this is all of the binary a crash dump needs.
    pub fn without_data(&self) -> Program {
        Program {
            name: self.name.clone(),
            code: self.code.clone(),
            code_base: self.code_base,
            entry_index: self.entry_index,
            data: Vec::new(),
            stack_top: self.stack_top,
            symbols: self.symbols.clone(),
        }
    }

    /// Initial stack pointer value.
    pub fn stack_top(&self) -> Addr {
        self.stack_top
    }

    /// Sets the initial stack pointer value.
    pub fn set_stack_top(&mut self, top: Addr) {
        self.stack_top = top;
    }

    /// Named addresses exported by the builder (for tests and reports).
    pub fn symbols(&self) -> &BTreeMap<String, Addr> {
        &self.symbols
    }

    /// Adds a named address.
    pub fn add_symbol(&mut self, name: impl Into<String>, addr: Addr) {
        self.symbols.insert(name.into(), addr);
    }

    /// Looks up a named address.
    pub fn symbol(&self, name: &str) -> Option<Addr> {
        self.symbols.get(name).copied()
    }

    /// Byte address of the instruction at `index`.
    pub fn pc_of_index(&self, index: u32) -> Addr {
        Addr::new(self.code_base.raw() + index as u64 * 4)
    }

    /// Instruction index of a code byte address, if it falls inside the code
    /// segment.
    pub fn index_of_pc(&self, pc: Addr) -> Option<u32> {
        let raw = pc.raw();
        let base = self.code_base.raw();
        if raw < base || !(raw - base).is_multiple_of(4) {
            return None;
        }
        let index = (raw - base) / 4;
        if (index as usize) < self.code.len() {
            Some(index as u32)
        } else {
            None
        }
    }

    /// The instruction at a given code byte address.
    pub fn fetch(&self, pc: Addr) -> Option<Instr> {
        self.index_of_pc(pc).map(|i| self.code[i as usize])
    }

    /// Number of instructions in the code segment.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the program has no instructions (never true for a valid program).
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "program {} ({} instructions at {}, entry @{})",
            self.name,
            self.code.len(),
            self.code_base,
            self.entry_index
        )?;
        for (i, instr) in self.code.iter().enumerate() {
            writeln!(f, "  {:5}: {}", i, instr)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Instr;
    use crate::reg::Reg;

    fn tiny() -> Program {
        Program::new(
            "tiny",
            vec![
                Instr::Li {
                    rd: Reg::R3,
                    imm: 1,
                },
                Instr::Halt,
            ],
            Addr::new(DEFAULT_CODE_BASE),
            0,
            vec![DataSegment {
                base: Addr::new(DEFAULT_DATA_BASE),
                words: vec![Word::new(7)],
            }],
        )
    }

    #[test]
    fn pc_index_round_trip() {
        let p = tiny();
        assert_eq!(p.pc_of_index(1), Addr::new(DEFAULT_CODE_BASE + 4));
        assert_eq!(p.index_of_pc(Addr::new(DEFAULT_CODE_BASE + 4)), Some(1));
        assert_eq!(p.index_of_pc(Addr::new(DEFAULT_CODE_BASE + 8)), None);
        assert_eq!(p.index_of_pc(Addr::new(DEFAULT_CODE_BASE + 2)), None);
        assert_eq!(p.index_of_pc(Addr::new(DEFAULT_CODE_BASE - 4)), None);
    }

    #[test]
    fn fetch_returns_instruction() {
        let p = tiny();
        assert_eq!(
            p.fetch(p.entry_pc()),
            Some(Instr::Li {
                rd: Reg::R3,
                imm: 1
            })
        );
        assert_eq!(p.fetch(Addr::new(0)), None);
    }

    #[test]
    fn data_segment_extent() {
        let p = tiny();
        let seg = &p.data()[0];
        assert_eq!(seg.len_bytes(), 4);
        assert_eq!(seg.end(), Addr::new(DEFAULT_DATA_BASE + 4));
    }

    #[test]
    fn without_data_keeps_everything_but_the_data() {
        let mut p = tiny();
        p.set_stack_top(Addr::new(0x7000_0000));
        p.add_symbol("counter", Addr::new(DEFAULT_DATA_BASE));
        let image = p.without_data();
        assert!(image.data().is_empty());
        assert_eq!(image.name(), p.name());
        assert_eq!(image.code(), p.code());
        assert_eq!(image.code_base(), p.code_base());
        assert_eq!(image.entry_index(), p.entry_index());
        assert_eq!(image.stack_top(), p.stack_top());
        assert_eq!(image.symbols(), p.symbols());
        assert_eq!(image.without_data(), image);
    }

    #[test]
    fn symbols() {
        let mut p = tiny();
        p.add_symbol("counter", Addr::new(0x2000));
        assert_eq!(p.symbol("counter"), Some(Addr::new(0x2000)));
        assert_eq!(p.symbol("missing"), None);
    }

    #[test]
    #[should_panic(expected = "entry index")]
    fn rejects_bad_entry() {
        let _ = Program::new(
            "bad",
            vec![Instr::Halt],
            Addr::new(DEFAULT_CODE_BASE),
            5,
            vec![],
        );
    }

    #[test]
    fn display_lists_instructions() {
        let text = tiny().to_string();
        assert!(text.contains("li r3"));
        assert!(text.contains("halt"));
    }
}
