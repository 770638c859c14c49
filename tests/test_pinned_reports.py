"""Pinned recipe, Method-2, chain, tilting, strong-exceptional, fan, Frobenius
and embedding-certificate output.

Replays ``recipe LABEL`` on all 19 poset rows, ``--seed 0 method2 LABEL
--dump-complex FILE`` on S3, D1_3 and E1, the ``propagate`` reports of four
contraction chains, ``tilting-total-space`` and ``strong-exceptional`` on the
nine stored collections, ``validate`` and ``forbidden-sets`` on the 17
bundled fans and ``frobenius LABEL --m 10 --gen`` on I1, E1 and R3 through
click's CliRunner, and compares the sha256 of every report and complex file
with the digests below.  The embedding certificate of each of the seven
Method-2 rows (the nef route's Minkowski check on S3, D1_3, E1 and R3, the
theta route's surjectivity check on J1, M1 and V4) is pinned as the sha256
of ``repr(EmbeddingVerdict)``, with 0 in place of the exit code when the
verdict is ok and 1 when not.  Each of 64 seeded Pic classes (see
``cohomology_samples``) is pinned as the sha256 of the reprs of
``higher_cohomology_witness`` and ``has_higher_cohomology`` on it, with 1 in
place of the exit code when the class has higher cohomology and 0 when not.
Run this file as a script to print a fresh table:

    PYTHONPATH=src python tests/test_pinned_reports.py
"""

import hashlib
import random

import pytest
from click.testing import CliRunner

from toricsec.cli import main
from toricsec.cohomology import has_higher_cohomology, higher_cohomology_witness
from toricsec.quiver import (
    build_quiver_of_sections,
    minkowski_embedding_check,
    theta_fiber_surjectivity_check,
)
from toricsec.workspace import load_workspace

METHOD2 = ("S3", "D1_3", "E1")
CHAINS = (("E1", "B1"), ("S3", "S1"), ("S3", "P2"), ("D1_3", "B1_3"))
COLLECTIONS = ("P1xP1", "S3", "D1_3", "E1", "I1", "J1", "M1", "V4", "R3")
FANS = ("B1", "B1_3", "D1_3", "E1", "I1", "J1", "M1", "P1", "P1xP1", "P2", "P3",
        "P4", "R3", "S1", "S2", "S3", "V4")
FROBENIUS = ("I1", "E1", "R3")
RECIPES = ("P1", "P2", "P3", "P4", "P1xP1", "S1", "S2", "S3", "B1_3", "D1_3", "B1",
           "E1", "I1", "J1", "M1", "V4", "R3", "K3", "H10")
EMBEDDINGS = ("S3", "D1_3", "E1", "R3", "J1", "M1", "V4")
COHOMOLOGY_SAMPLES = 64

DIGESTS = {
    "cohomology 00 R3 3,0,-3,-1,1":
        (1, "e2b53b0a5ed5579dd1a747d0cd0a2413b929768184b8290a9e22321cd38239c6"),
    "cohomology 01 S3 0,3,3,-1":
        (1, "9016c20ecf6077a9dc6b14213a98140ca92bc25121f3248f1783a22a14f9ad8f"),
    "cohomology 02 S3 -1,1,-2,1":
        (1, "332afbb7c45cb39d02af1d3cde37cb2de91632f812bd05fca3226481d3d0e621"),
    "cohomology 03 I1 -1,-2,3,-3":
        (1, "a5e1db10c45733812fd5108a70552f6837136001f44eaac5071a3badca88b07a"),
    "cohomology 04 P1xP1 1,2":
        (0, "9fa67b2aafe451bdc9291c9ac9d0e1ecf9c93dc5e8a42040fdc2cd725d014c76"),
    "cohomology 05 I1 -1,-3,2,-3":
        (1, "8bfd636a197b1a09c68e79deff2254d98e96a37265076014f37e6992cda3468a"),
    "cohomology 06 P3 0":
        (0, "9fa67b2aafe451bdc9291c9ac9d0e1ecf9c93dc5e8a42040fdc2cd725d014c76"),
    "cohomology 07 E1 -1,0,-1":
        (0, "9fa67b2aafe451bdc9291c9ac9d0e1ecf9c93dc5e8a42040fdc2cd725d014c76"),
    "cohomology 08 M1 1,0,0,3":
        (0, "9fa67b2aafe451bdc9291c9ac9d0e1ecf9c93dc5e8a42040fdc2cd725d014c76"),
    "cohomology 09 V4 -1,-3,3,1,-3":
        (1, "bd336ad3d8e6f9f8ab9f2954a63a3149ab7a360d53094d5ae1fb7404e79ed7b5"),
    "cohomology 10 D1_3 2,3,0":
        (1, "fc5f03f8d3f7aa2039a929b083ee7624145112059ace6a6f65840062449747e5"),
    "cohomology 11 B1 1,0":
        (0, "9fa67b2aafe451bdc9291c9ac9d0e1ecf9c93dc5e8a42040fdc2cd725d014c76"),
    "cohomology 12 P3 -2":
        (0, "9fa67b2aafe451bdc9291c9ac9d0e1ecf9c93dc5e8a42040fdc2cd725d014c76"),
    "cohomology 13 P3 2":
        (0, "9fa67b2aafe451bdc9291c9ac9d0e1ecf9c93dc5e8a42040fdc2cd725d014c76"),
    "cohomology 14 D1_3 -2,1,-2":
        (1, "24f6b71892f26c6ade7a37c462628373bd555b37f0cd886c6144affef634b900"),
    "cohomology 15 P1 3":
        (0, "9fa67b2aafe451bdc9291c9ac9d0e1ecf9c93dc5e8a42040fdc2cd725d014c76"),
    "cohomology 16 I1 3,1,0,-3":
        (1, "3d7a68b26701b87b7f21da91aaea557b9f364526c7546ca6064548dca3d41aea"),
    "cohomology 17 D1_3 -1,1,0":
        (0, "9fa67b2aafe451bdc9291c9ac9d0e1ecf9c93dc5e8a42040fdc2cd725d014c76"),
    "cohomology 18 E1 -1,1,-1":
        (0, "9fa67b2aafe451bdc9291c9ac9d0e1ecf9c93dc5e8a42040fdc2cd725d014c76"),
    "cohomology 19 E1 1,-1,3":
        (1, "056d6314b3edbc92344414426d9536aaccd24b22ed45b1280e4fa7e1127631e9"),
    "cohomology 20 M1 3,1,1,1":
        (0, "9fa67b2aafe451bdc9291c9ac9d0e1ecf9c93dc5e8a42040fdc2cd725d014c76"),
    "cohomology 21 P2 0":
        (0, "9fa67b2aafe451bdc9291c9ac9d0e1ecf9c93dc5e8a42040fdc2cd725d014c76"),
    "cohomology 22 D1_3 1,3,0":
        (1, "74943ce6f9b17e5b6b5f50e85636cab2804ba2079e8d9cd8f0e60be3e9686cb5"),
    "cohomology 23 P3 1":
        (0, "9fa67b2aafe451bdc9291c9ac9d0e1ecf9c93dc5e8a42040fdc2cd725d014c76"),
    "cohomology 24 P1 -1":
        (0, "9fa67b2aafe451bdc9291c9ac9d0e1ecf9c93dc5e8a42040fdc2cd725d014c76"),
    "cohomology 25 J1 -2,3,-2,-3":
        (1, "5638e7bc9a1b0e712cd39f32a63eb1dceb499a7f604f1b4863f9ab20525a9c82"),
    "cohomology 26 P1xP1 0,-3":
        (1, "ebbc0e5c7861aeb2c712efd22213889e0e9d08d97a5b04b5f897e8ebdaa0bb01"),
    "cohomology 27 D1_3 2,3,-2":
        (1, "932b5b8dc69e5bded6538dd180809eb155d7f5ab943198ed622e54a00f85c94c"),
    "cohomology 28 I1 -3,3,-3,2":
        (1, "2fc8b803a9b74d2d9d88a9c9a423a45e15cb53719427e8e505901d5ee155ff69"),
    "cohomology 29 R3 3,2,1,-1,1":
        (0, "9fa67b2aafe451bdc9291c9ac9d0e1ecf9c93dc5e8a42040fdc2cd725d014c76"),
    "cohomology 30 P1 3":
        (0, "9fa67b2aafe451bdc9291c9ac9d0e1ecf9c93dc5e8a42040fdc2cd725d014c76"),
    "cohomology 31 M1 2,1,3,0":
        (0, "9fa67b2aafe451bdc9291c9ac9d0e1ecf9c93dc5e8a42040fdc2cd725d014c76"),
    "cohomology 32 P1xP1 0,0":
        (0, "9fa67b2aafe451bdc9291c9ac9d0e1ecf9c93dc5e8a42040fdc2cd725d014c76"),
    "cohomology 33 P4 -3":
        (0, "9fa67b2aafe451bdc9291c9ac9d0e1ecf9c93dc5e8a42040fdc2cd725d014c76"),
    "cohomology 34 P3 1":
        (0, "9fa67b2aafe451bdc9291c9ac9d0e1ecf9c93dc5e8a42040fdc2cd725d014c76"),
    "cohomology 35 E1 0,1,2":
        (0, "9fa67b2aafe451bdc9291c9ac9d0e1ecf9c93dc5e8a42040fdc2cd725d014c76"),
    "cohomology 36 P3 3":
        (0, "9fa67b2aafe451bdc9291c9ac9d0e1ecf9c93dc5e8a42040fdc2cd725d014c76"),
    "cohomology 37 M1 -2,-3,2,-1":
        (0, "9fa67b2aafe451bdc9291c9ac9d0e1ecf9c93dc5e8a42040fdc2cd725d014c76"),
    "cohomology 38 E1 2,-2,-1":
        (0, "9fa67b2aafe451bdc9291c9ac9d0e1ecf9c93dc5e8a42040fdc2cd725d014c76"),
    "cohomology 39 J1 -1,0,3,-3":
        (1, "540c84b89754e2553afb8220f74aa52fcdc7d565db59efcdccdba7c2966d3631"),
    "cohomology 40 E1 3,-2,3":
        (1, "71954b881e63b11b0ee726922e262710a4efbb9581df8fcc91062a69644a30ef"),
    "cohomology 41 P1 -3":
        (1, "72f43d443fe04cc83783e97a4a40bf8efdd83426f1ba017ec36c55e56a4c7336"),
    "cohomology 42 D1_3 -3,-3,2":
        (1, "30bb273f1ec69076293a1c85655348a28e9777afe439787bd7b4b97119b16259"),
    "cohomology 43 M1 1,3,1,-3":
        (1, "86fd932679f263854d4cf80ea7a885fab99e740c337445985013ae2748af2e9a"),
    "cohomology 44 R3 -3,-1,3,-3,-3":
        (1, "f898ce62d44afd9bf5fc083582cb28fc61a4ab16cd633a2879630394ac8cdec0"),
    "cohomology 45 B1 -2,-2":
        (1, "c769c7fb00a5c3bcfa690c7d469cf82b2c448fb1073de416fcf6f230625ed9ae"),
    "cohomology 46 E1 0,-2,2":
        (1, "d98dc94fe93a13330a1b735de52f833e84afa4693fd104cd5331e37188c13542"),
    "cohomology 47 B1_3 2,-3":
        (1, "49e21f9dc4f83c2bd2fe98f8ffa03edbc9d7366ca6d2cea58c704ddcf2902b4a"),
    "cohomology 48 S1 1,-3":
        (1, "664cf48a92c2f5c878c66fc64304a28e8a6be429809a6c8de33551a1f1ef7403"),
    "cohomology 49 P1xP1 -3,-2":
        (1, "86e1c0f4657522cec9e0ad61cb328dfd5f913f34e56bdf49fb20894b82d665bc"),
    "cohomology 50 D1_3 2,-1,-1":
        (0, "9fa67b2aafe451bdc9291c9ac9d0e1ecf9c93dc5e8a42040fdc2cd725d014c76"),
    "cohomology 51 S1 -2,-3":
        (1, "8e5e3fe2f5a3e7c7eb357b258f80f78b525646b26793e89142563c825b942280"),
    "cohomology 52 V4 0,-3,1,-3,2":
        (1, "d16ea812fb7114192943b3e43831e0c79f345957fa977f0da961ff4759c2833d"),
    "cohomology 53 R3 -2,-1,-1,2,0":
        (0, "9fa67b2aafe451bdc9291c9ac9d0e1ecf9c93dc5e8a42040fdc2cd725d014c76"),
    "cohomology 54 J1 2,2,-2,3":
        (1, "893c0b52e9f2cbab05ab59a3c6776fae9cee475bd3419a274334a6d483ce0a0e"),
    "cohomology 55 B1_3 3,2":
        (0, "9fa67b2aafe451bdc9291c9ac9d0e1ecf9c93dc5e8a42040fdc2cd725d014c76"),
    "cohomology 56 J1 3,-2,-1,1":
        (1, "45b62da77f88b790275b50b761d6d8ae3dd6e55afcb664bcfa4aaa4afa755c91"),
    "cohomology 57 P1xP1 -3,1":
        (1, "3e53baf314ea3746e0fd57ee33e84fda28f3e0c8ad48d102ac64a45819b1ab50"),
    "cohomology 58 S2 2,-2,-3":
        (1, "e86c28b1a5414a7de369e9dc8d5e99bf48b3f7fa58f6ffcd981a4242fd636c1e"),
    "cohomology 59 S3 2,0,1,3":
        (0, "9fa67b2aafe451bdc9291c9ac9d0e1ecf9c93dc5e8a42040fdc2cd725d014c76"),
    "cohomology 60 V4 -1,2,-1,0,3":
        (1, "34855054d8702ed6cefcaf29e28327d92462ecc834a8f7a87cdc41fe43a87793"),
    "cohomology 61 P1xP1 -2,1":
        (1, "21c510d59fe23c60dac31c382e3a4a5953cbdf60729307f71f8c2fb983133487"),
    "cohomology 62 B1 0,2":
        (0, "9fa67b2aafe451bdc9291c9ac9d0e1ecf9c93dc5e8a42040fdc2cd725d014c76"),
    "cohomology 63 D1_3 -1,2,-3":
        (1, "420ab3e52ce50f3b28c8c907a0e3000ae134abe3a49e09a9811fb713872caeba"),
    "complex D1_3":
        (0, "ad5d3a5eccab8b958b4b08f26a5e476e0f38154af4683f5d97093e416c1ec4a1"),
    "complex E1":
        (0, "9b3d454b8da420e44bbeeb818aa0ab83c31a6d307efdac97318e3bb4fa4bf167"),
    "complex S3":
        (0, "e2fa166f96a98e868fb4d60836a824ee302951444c71730ef1096672803a72f8"),
    "embedding D1_3":
        (0, "cb694db0b04c7dd8a40b1b6c72be569985a872359dbdda170a8fd71af187c670"),
    "embedding E1":
        (0, "ec36174a9f05b90bbcae2c39b1c65b80ed84899368b3c9a9680396dc50cb744b"),
    "embedding J1":
        (0, "95516402dcad447698d4a9f73149ffd58842282f3e1ab12186c354fdfdf8ecf7"),
    "embedding M1":
        (0, "fe62318f7c3f72b061f522cf6fa7e260e422f479f1a01075b8391c5892df2763"),
    "embedding R3":
        (0, "7b3ea84a45a6b4c32914bdbb5b556608a13cddc05504f049bcc907d5fce4de5f"),
    "embedding S3":
        (0, "769f077da8b11b7e6302056ed0b5712bc9f33bbafce15a5bea82664ee702a99c"),
    "embedding V4":
        (0, "1d77c293a7ab48a3b52043f6ba003cb594c24fa7a1fd9a8fc2dcaab6f014a7fb"),
    "forbidden-sets B1":
        (0, "ece08f04e024f6ce5ebae039595ce1509cb7e1ee3e3a9eee593ccfa5cd0701e4"),
    "forbidden-sets B1_3":
        (0, "95f40ef502dbf61ef556516ed057c2efcd3782bccadf8e0688b0ae4435e93890"),
    "forbidden-sets D1_3":
        (0, "c4511e34d503a4dc61b69b5312d357e66cc4ec985946a369ee22d45f59935de4"),
    "forbidden-sets E1":
        (0, "8f51a79a85915be86eabb89d8db18b70c44db1f8dd761c81b999865b01b70844"),
    "forbidden-sets I1":
        (0, "dec4bdee43b6caa146d6e43a089c7a7d0e7e1117188f2d2160bc39e418110be6"),
    "forbidden-sets J1":
        (0, "29f6070c61c4d3cf8a34e62c42c14c2dae6609d4aec2818cdf8907c86da0c1c1"),
    "forbidden-sets M1":
        (0, "11ce559764a7ee9ca570e325eb8a9d00cc1684c61fcf8e03e67f04f5126737f9"),
    "forbidden-sets P1":
        (0, "453b8df3fc63e82374c468cf2d81a02eee9ccbce3cad7d19fe13567d67475f3d"),
    "forbidden-sets P1xP1":
        (0, "3516583c25c285b832a4f5eaa7e0aad40c253151277cb7b150dd96ad9c987b19"),
    "forbidden-sets P2":
        (0, "0850cab4f9b23b287c0fc8ccacd6492972ff45a78a87b1e4eb73719919ad7c2f"),
    "forbidden-sets P3":
        (0, "2334d95270c2aa8b706ee263804c9805eb0796c22813a8213a0553931e23efe9"),
    "forbidden-sets P4":
        (0, "ca540a08dedc2c7339b9083fc331d811739e33b4f7d455b947b755c64756a7d1"),
    "forbidden-sets R3":
        (0, "0d374a2cdd6d426113352e55aa7768479c2274e4098f9b092cb88475cdd362a7"),
    "forbidden-sets S1":
        (0, "21d5cd3dc7e79e4d7df5e6ee5356db5251c1719c1d562c91ab8376d49d7b9eed"),
    "forbidden-sets S2":
        (0, "ba5fcc0b8f8cc40077437477a4c253b93100a9153e3c5c613fe4417f972f3fe4"),
    "forbidden-sets S3":
        (0, "3fbaaeaab81763cc5dc3c2ada56eb39564f560b7769ea687bdd99fd7c2df6500"),
    "forbidden-sets V4":
        (0, "b477d777321f9b7eed5c027435bdca581b4694c703d9cf080d7b6f461ba4b962"),
    "frobenius E1 --m 10 --gen":
        (0, "fbd721e3c535d07ca22aa64de1650fa17dce5a5e99bc385e73ac274c4c43b6a8"),
    "frobenius I1 --m 10 --gen":
        (0, "12ce669c45d1a62e2d7500834400257085530d76c33368a244bde50c246024f4"),
    "frobenius R3 --m 10 --gen":
        (0, "1779254cfa20e28369f3796b4a0c8fb54702d8cb7902c15c15e8d54ca3991f6d"),
    "method2 D1_3":
        (0, "5f8f94ead5de961ed84f3c8e3fce9888e22628669a09fd42087de6228f3d5715"),
    "method2 E1":
        (0, "ff1179f6169f936812a9052b5f6b1950d4af23747cc4329eb36c9a257015b45f"),
    "method2 S3":
        (0, "59af3a1e190b0258dc2b41f42bd8b90ab2d0a1841841381387895f4e267faf3a"),
    "propagate D1_3 B1_3":
        (0, "bf77b49504f15cf63ac50ff051f3ba5be541383c6af27e2edc2c914fc93d008b"),
    "propagate E1 B1":
        (0, "dbcbcfedf4021b5de35f4678f4ff4458588a1a3771cd53f99b9d544446f8d9d1"),
    "propagate S3 P2":
        (0, "f7d546611345e1626a4025d85d5fc4fb9c6d0d8d9462bd16aeeb68a7dbdae56e"),
    "propagate S3 S1":
        (0, "86aa6cbaaa5d105beac1877ecc4d2310fd3cd8f192fd43073dde99ead83f20d2"),
    "recipe B1":
        (0, "d7261ab162c1317722918d5156cf734224e81c3d9de33344cf90ef3f53ce3a41"),
    "recipe B1_3":
        (0, "410c1112eba7b39aa0ba53666f51c552f4211ee525936df947ed49d87954fdee"),
    "recipe D1_3":
        (0, "e9039d31a27a8b6b4892c439e9811f7ce3cae4e1c16b33ebcb11f110a55d555c"),
    "recipe E1":
        (0, "af9244185d321085ccfe56aa906f6ce5b32a3c50fa8903ce7a45fdc231aef15a"),
    "recipe H10":
        (1, "05bd7c2bab9f1aab6d32ef31cc6d261b422b9b0a3ad90d415c3cb3a098ef4c04"),
    "recipe I1":
        (0, "610b488a3fd4bd1155b1113f08f6dc505cf0c095d565aca7b3f4487568a001f2"),
    "recipe J1":
        (0, "e4eccf72a64f4737071ac75573e8beedad20e04592ef6a895a2ab70311d5d0b9"),
    "recipe K3":
        (1, "51d70d6db2b22a96d25145a8f46296bbd0ea6056e88b618721369d2556cfc5e9"),
    "recipe M1":
        (0, "675724fd3349f22accbac3d8986f5c08621530b4bc2d85ef0f575e142d51e122"),
    "recipe P1":
        (0, "a718c97bd736b4cfec3e20fe0fb7c8d79cb4f38dcf6b88bbab249f13e8670af1"),
    "recipe P1xP1":
        (0, "1fa5246d9fe73dcb036e9ec76a7e673ca3e16199ad704a04a7ad11c848cbfad0"),
    "recipe P2":
        (0, "956ba5d3509ce911bd6c1364df8467d2c2c49f6ea91602497a6c89aee17c9bcd"),
    "recipe P3":
        (0, "1f331cbf403ae756ac654e0cccc75d6629f76f3f43ebfeb6c8ad09417daa2a4b"),
    "recipe P4":
        (0, "5cea5c372de28740064d79905689a1fae6ab9d41fb6895324ec10dbf82a78d45"),
    "recipe R3":
        (0, "0a82c18a9c7a91240dc8d17aa38f9ed13cf10fc2e94553701f8384c244d7495e"),
    "recipe S1":
        (0, "c13b3d8e4b548626d391c897e10eb9ca706c13b20be2dd0df4d6fcaec858c9a4"),
    "recipe S2":
        (0, "d1e7906d4f5ae749f1c7d3a2a31f96a594f9b963c7f8e26e1f0f29a213b1faad"),
    "recipe S3":
        (0, "cb6712411fad6bfce03c40b620c7f9692a920ad1054b207674cfcadb9325d409"),
    "recipe V4":
        (0, "f9165f941d3b36e3b144ab7d18d86bd0953182e3ce6453bc6a6195667c82fc76"),
    "strong-exceptional D1_3":
        (0, "c87a947024388a0b27a9cb55ef839ee18d933672bcdecdce7a92e3cf21e2cea4"),
    "strong-exceptional E1":
        (0, "9d9ff213c79e2929102f89ec51bb413c27a1e6b14a40504317fec238f3378fcb"),
    "strong-exceptional I1":
        (0, "632bb378c8d81c439911bf6857d5a802c6575776e08ded7d41968b1cb03c26ec"),
    "strong-exceptional J1":
        (0, "030fd7411e65ad0a35d81166cf943974f48187d9dc52cbbbf7824407bda6e154"),
    "strong-exceptional M1":
        (0, "f442c098b84291339c5f5389cce06bf7223eebd9cf75f2b65795064d0f08b0e2"),
    "strong-exceptional P1xP1":
        (0, "1a9a21d46f1a1911f0ef85a4a5fac0eee5e133bffb195552a67500f1b665bcc1"),
    "strong-exceptional R3":
        (0, "ee750b6aa30ded480e50e9f1613663f776c58158783605784b1d64d13d24b086"),
    "strong-exceptional S3":
        (0, "f9e32fcf4fe9d63e83972cc64469fe86836076f4638ac1f6eeb5eca600b243e4"),
    "strong-exceptional V4":
        (0, "6b61f2f6b57cc3588db7a993f017a1468319bcd10667a669c1e0d50f7fe60e3b"),
    "tilting-total-space D1_3":
        (0, "3846c0a84ca1cb87e0872aa2600f88e70466544b716675283202288895e1cd0c"),
    "tilting-total-space E1":
        (0, "8f51d8517f577f64796e05762f074804c4cd530f3b8860c80c61a6ad5cfff08f"),
    "tilting-total-space I1":
        (0, "538f0caf4abd4e03e41b78ab37ebc94ef9285d8d0abbebc352da3327341b1751"),
    "tilting-total-space J1":
        (0, "fc25e364f2297c4cf3f64d3d40bc77e9e1159470dcbfb7b2b2ad0ea007822119"),
    "tilting-total-space M1":
        (0, "fcc416ddf4275af117ff34eb53973adefdc2c9d23d41e56fbf5bb4d6f0d3b748"),
    "tilting-total-space P1xP1":
        (0, "edcf8e9436b7b6331e889a6a759d1c09486f40836c97652d8a0133b6d198733f"),
    "tilting-total-space R3":
        (0, "d81225e81256cdfca39ded7e476ad9ce2d7ec441769eb221f5817b24e6d1dd48"),
    "tilting-total-space S3":
        (0, "ed596be2fc03bedd05a8f96a4a37b9c259bfd331d88ea876e6f43f4d882d0213"),
    "tilting-total-space V4":
        (0, "4021f37b6b46070f9efd4af8215fd56f50944986fdfafbfb0bd18e1adf076d47"),
    "validate B1":
        (0, "105ed99fba1271fcd5dd55df0dbd7a812b0a1d51a254b6781852582c38a2a447"),
    "validate B1_3":
        (0, "388139010e940e6942fef688785f4c481bcefc1b5163ec5c842f6fd0248b9d11"),
    "validate D1_3":
        (0, "66db44f65bd6761cdecf61c976096b3a0851e5daef407ca5468673aa8e90c725"),
    "validate E1":
        (0, "42179aa92bfb7a10648f77d78e7b74ed007080b752fff4b67ada986882022086"),
    "validate I1":
        (0, "e37bba0ca37de826b5f68312b412282f995eabd4b1bd54a95c5e748722510ebd"),
    "validate J1":
        (0, "1d4e115e6619c3a60041726f8d55cd87ff234e9be2b6fba19810ed1a079a4055"),
    "validate M1":
        (0, "15f70ca62a7b782454776e40698de9f710a78080031ed2480fb76c178a7af16c"),
    "validate P1":
        (0, "6671bf6c42bbea2d3899469fa95144780a86e5df4e9de15e6f124b65d9af845b"),
    "validate P1xP1":
        (0, "34392e0910161a4d9e1bb6b9262663994ac015e838d1b238939bf30d956feb07"),
    "validate P2":
        (0, "c5982b36b5c9e5e81f52d5d11fd2c9fb1393cc7454113e42cccd886b2ea1d1a5"),
    "validate P3":
        (0, "be1242169695c32ef00f87f4f07c319f06f928219ac838686bddcf333fdffc62"),
    "validate P4":
        (0, "ed1b4c354d9570b53deb10f3e874435953cb33e67076cef524064baf9767967c"),
    "validate R3":
        (0, "c17be733c3d41867837b833c38823fc6cb16202a6cc63c82ce250d980c8dc2b8"),
    "validate S1":
        (0, "0a1fac34ef8a1fb5f5c0dfa229c617c6eb8fda26dc40e38a9e190bf359270eab"),
    "validate S2":
        (0, "4027a5aa18461b373972e7f7f5e02ecc8e81e7d7cd066599d7addd8ac0a41721"),
    "validate S3":
        (0, "c468624f36e75a1b1563a2ad7df45ca20bad1964e23c8ce402dd440db7e7fb3b"),
    "validate V4":
        (0, "59897331f8bfc60223045330067122df80952b9095549bb701efc322521e7d9e"),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cohomology_samples(ws):
    """(fan label, Pic class) pairs drawn from seed 0, entries in [-3, 3]."""
    rng = random.Random(0)
    labels = sorted(ws.fans)
    out = []
    for _ in range(COHOMOLOGY_SAMPLES):
        label = rng.choice(labels)
        out.append((label, tuple(rng.randint(-3, 3) for _ in range(ws.pic(label).rank))))
    return out


def replay(temp_dir=None) -> dict[str, tuple[int, str]]:
    """(exit code, sha256) per report and per dumped complex."""
    runner = CliRunner()
    out = {}
    with runner.isolated_filesystem(temp_dir=temp_dir):
        for label in METHOD2:
            path = f"{label}.complex"
            res = runner.invoke(main, ["--seed", "0", "method2", label, "--dump-complex", path])
            out[f"method2 {label}"] = (res.exit_code, _sha(res.output))
            with open(path) as fh:
                out[f"complex {label}"] = (0, _sha(fh.read()))
        commands = [("propagate", source, target) for source, target in CHAINS]
        commands += [(command, label) for label in COLLECTIONS
                     for command in ("tilting-total-space", "strong-exceptional")]
        commands += [(command, label) for label in FANS
                     for command in ("validate", "forbidden-sets")]
        commands += [("frobenius", label, "--m", "10", "--gen") for label in FROBENIUS]
        commands += [("recipe", label) for label in RECIPES]
        for args in commands:
            res = runner.invoke(main, list(args))
            out[" ".join(args)] = (res.exit_code, _sha(res.output))
    ws = load_workspace()
    nodes = ws.poset.nodes
    for label in EMBEDDINGS:
        node = nodes[label]
        if node.theta is None:
            emb = minkowski_embedding_check(node.fan, node.pic, node.bundles)
        else:
            qx = build_quiver_of_sections(node.fan, node.pic, node.bundles)
            emb = theta_fiber_surjectivity_check(qx, node.fan, node.pic, node.theta)
        out[f"embedding {label}"] = (0 if emb.ok else 1, _sha(repr(emb)))
    for i, (label, cls) in enumerate(cohomology_samples(ws)):
        fan, pic = ws.fan(label), ws.pic(label)
        witness = higher_cohomology_witness(fan, pic, cls)
        answer = has_higher_cohomology(fan, pic, cls)
        key = f"cohomology {i:02d} {label} {','.join(map(str, cls))}"
        out[key] = (int(answer[0]), _sha(f"{witness!r}\n{answer!r}"))
    return out


@pytest.fixture(scope="module")
def replayed(tmp_path_factory):
    return replay(tmp_path_factory.mktemp("pinned"))


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_output_matches_pinned_digest(replayed, name):
    assert replayed[name] == DIGESTS[name]


def test_every_output_is_pinned(replayed):
    assert set(replayed) == set(DIGESTS)


if __name__ == "__main__":
    print("DIGESTS = {")
    for name, (code, digest) in sorted(replay().items()):
        print(f'    "{name}":\n        ({code}, "{digest}"),')
    print("}")
